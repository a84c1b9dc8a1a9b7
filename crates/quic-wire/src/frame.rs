//! QUIC frames (draft-29 §19): all twenty frame types, with a byte-level
//! codec over varints.
//!
//! The paper's abstract alphabet identifies packets by their packet type and
//! the *names* of the frames they carry (e.g. `SHORT(?,?)[ACK,STREAM]`), so
//! each frame exposes its [`FrameType`] name; the concrete fields (offsets,
//! stream IDs, flow-control limits) are what the synthesis module recovers
//! from the Oracle Table — most prominently the `STREAM_DATA_BLOCKED`
//! `Maximum Stream Data` field at the heart of Issue 4.
//!
//! A [`Frame`] borrows its byte fields (`Cow`): a decoded frame points into
//! the opened payload and a built one usually into static data, so neither
//! copies them; owned data is for frames whose bytes are computed.

use crate::varint::{read_varint, take, take_array, write_varint, VarIntError};
use std::borrow::Cow;
use std::fmt;

/// The twenty draft-29 frame types, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum FrameType {
    Padding,
    Ping,
    Ack,
    ResetStream,
    StopSending,
    Crypto,
    NewToken,
    Stream,
    MaxData,
    MaxStreamData,
    MaxStreams,
    DataBlocked,
    StreamDataBlocked,
    StreamsBlocked,
    NewConnectionId,
    RetireConnectionId,
    PathChallenge,
    PathResponse,
    ConnectionClose,
    HandshakeDone,
}

impl FrameType {
    /// The paper's notation for the frame (upper snake case).
    pub fn name(&self) -> &'static str {
        match self {
            FrameType::Padding => "PADDING",
            FrameType::Ping => "PING",
            FrameType::Ack => "ACK",
            FrameType::ResetStream => "RESET_STREAM",
            FrameType::StopSending => "STOP_SENDING",
            FrameType::Crypto => "CRYPTO",
            FrameType::NewToken => "NEW_TOKEN",
            FrameType::Stream => "STREAM",
            FrameType::MaxData => "MAX_DATA",
            FrameType::MaxStreamData => "MAX_STREAM_DATA",
            FrameType::MaxStreams => "MAX_STREAMS",
            FrameType::DataBlocked => "DATA_BLOCKED",
            FrameType::StreamDataBlocked => "STREAM_DATA_BLOCKED",
            FrameType::StreamsBlocked => "STREAMS_BLOCKED",
            FrameType::NewConnectionId => "NEW_CONNECTION_ID",
            FrameType::RetireConnectionId => "RETIRE_CONNECTION_ID",
            FrameType::PathChallenge => "PATH_CHALLENGE",
            FrameType::PathResponse => "PATH_RESPONSE",
            FrameType::ConnectionClose => "CONNECTION_CLOSE",
            FrameType::HandshakeDone => "HANDSHAKE_DONE",
        }
    }

    /// All twenty frame types.
    pub const ALL: [FrameType; 20] = [
        FrameType::Padding,
        FrameType::Ping,
        FrameType::Ack,
        FrameType::ResetStream,
        FrameType::StopSending,
        FrameType::Crypto,
        FrameType::NewToken,
        FrameType::Stream,
        FrameType::MaxData,
        FrameType::MaxStreamData,
        FrameType::MaxStreams,
        FrameType::DataBlocked,
        FrameType::StreamDataBlocked,
        FrameType::StreamsBlocked,
        FrameType::NewConnectionId,
        FrameType::RetireConnectionId,
        FrameType::PathChallenge,
        FrameType::PathResponse,
        FrameType::ConnectionClose,
        FrameType::HandshakeDone,
    ];

    /// Parses the paper's notation back into a frame type.
    pub fn from_name(name: &str) -> Option<FrameType> {
        FrameType::ALL.into_iter().find(|t| t.name() == name)
    }
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A QUIC frame whose byte fields live for `'a`.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Frame<'a> {
    Padding,
    Ping,
    /// Simplified ACK: a single range ending at `largest_acknowledged`.
    Ack {
        largest_acknowledged: u64,
        ack_delay: u64,
        first_ack_range: u64,
    },
    ResetStream {
        stream_id: u64,
        error_code: u64,
        final_size: u64,
    },
    StopSending {
        stream_id: u64,
        error_code: u64,
    },
    Crypto {
        offset: u64,
        data: Cow<'a, [u8]>,
    },
    NewToken {
        token: Cow<'a, [u8]>,
    },
    Stream {
        stream_id: u64,
        offset: u64,
        fin: bool,
        data: Cow<'a, [u8]>,
    },
    MaxData {
        maximum: u64,
    },
    MaxStreamData {
        stream_id: u64,
        maximum: u64,
    },
    MaxStreams {
        bidirectional: bool,
        maximum: u64,
    },
    DataBlocked {
        limit: u64,
    },
    StreamDataBlocked {
        stream_id: u64,
        maximum_stream_data: u64,
    },
    StreamsBlocked {
        bidirectional: bool,
        limit: u64,
    },
    NewConnectionId {
        sequence: u64,
        retire_prior_to: u64,
        connection_id: Cow<'a, [u8]>,
        reset_token: [u8; 16],
    },
    RetireConnectionId {
        sequence: u64,
    },
    PathChallenge {
        data: [u8; 8],
    },
    PathResponse {
        data: [u8; 8],
    },
    ConnectionClose {
        error_code: u64,
        frame_type: u64,
        reason: Cow<'a, str>,
        application: bool,
    },
    HandshakeDone,
}

/// Errors raised by the frame codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// A varint field was malformed or the buffer was truncated.
    VarInt(VarIntError),
    /// The buffer ended inside a frame body.
    Truncated,
    /// An unknown frame-type byte was encountered.
    UnknownType(u64),
}

impl From<VarIntError> for FrameError {
    fn from(e: VarIntError) -> Self {
        FrameError::VarInt(e)
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::VarInt(e) => write!(f, "varint error: {e}"),
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:x}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl<'a> Frame<'a> {
    /// The frame's type name.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Padding => FrameType::Padding,
            Frame::Ping => FrameType::Ping,
            Frame::Ack { .. } => FrameType::Ack,
            Frame::ResetStream { .. } => FrameType::ResetStream,
            Frame::StopSending { .. } => FrameType::StopSending,
            Frame::Crypto { .. } => FrameType::Crypto,
            Frame::NewToken { .. } => FrameType::NewToken,
            Frame::Stream { .. } => FrameType::Stream,
            Frame::MaxData { .. } => FrameType::MaxData,
            Frame::MaxStreamData { .. } => FrameType::MaxStreamData,
            Frame::MaxStreams { .. } => FrameType::MaxStreams,
            Frame::DataBlocked { .. } => FrameType::DataBlocked,
            Frame::StreamDataBlocked { .. } => FrameType::StreamDataBlocked,
            Frame::StreamsBlocked { .. } => FrameType::StreamsBlocked,
            Frame::NewConnectionId { .. } => FrameType::NewConnectionId,
            Frame::RetireConnectionId { .. } => FrameType::RetireConnectionId,
            Frame::PathChallenge { .. } => FrameType::PathChallenge,
            Frame::PathResponse { .. } => FrameType::PathResponse,
            Frame::ConnectionClose { .. } => FrameType::ConnectionClose,
            Frame::HandshakeDone => FrameType::HandshakeDone,
        }
    }

    /// Whether this frame is ack-eliciting (draft-29 §13.2): everything
    /// except ACK, PADDING and CONNECTION_CLOSE.
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack { .. } | Frame::Padding | Frame::ConnectionClose { .. }
        )
    }

    /// Appends the frame's encoding to `buf`.
    ///
    /// # Panics
    /// Panics when a numeric field exceeds the varint range (2⁶² − 1).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        // Frame-type codes follow draft-29 §19.
        match self {
            Frame::Padding => buf.push(0x00),
            Frame::Ping => buf.push(0x01),
            Frame::Ack {
                largest_acknowledged,
                ack_delay,
                first_ack_range,
            } => {
                buf.push(0x02);
                write_varint(buf, *largest_acknowledged).unwrap();
                write_varint(buf, *ack_delay).unwrap();
                write_varint(buf, 0).unwrap(); // ack range count
                write_varint(buf, *first_ack_range).unwrap();
            }
            Frame::ResetStream {
                stream_id,
                error_code,
                final_size,
            } => {
                buf.push(0x04);
                write_varint(buf, *stream_id).unwrap();
                write_varint(buf, *error_code).unwrap();
                write_varint(buf, *final_size).unwrap();
            }
            Frame::StopSending {
                stream_id,
                error_code,
            } => {
                buf.push(0x05);
                write_varint(buf, *stream_id).unwrap();
                write_varint(buf, *error_code).unwrap();
            }
            Frame::Crypto { offset, data } => {
                buf.push(0x06);
                write_varint(buf, *offset).unwrap();
                write_varint(buf, data.len() as u64).unwrap();
                buf.extend_from_slice(data);
            }
            Frame::NewToken { token } => {
                buf.push(0x07);
                write_varint(buf, token.len() as u64).unwrap();
                buf.extend_from_slice(token);
            }
            Frame::Stream {
                stream_id,
                offset,
                fin,
                data,
            } => {
                // OFF and LEN bits always set; FIN bit as requested.
                buf.push(0x0E | u8::from(*fin));
                write_varint(buf, *stream_id).unwrap();
                write_varint(buf, *offset).unwrap();
                write_varint(buf, data.len() as u64).unwrap();
                buf.extend_from_slice(data);
            }
            Frame::MaxData { maximum } => {
                buf.push(0x10);
                write_varint(buf, *maximum).unwrap();
            }
            Frame::MaxStreamData { stream_id, maximum } => {
                buf.push(0x11);
                write_varint(buf, *stream_id).unwrap();
                write_varint(buf, *maximum).unwrap();
            }
            Frame::MaxStreams {
                bidirectional,
                maximum,
            } => {
                buf.push(if *bidirectional { 0x12 } else { 0x13 });
                write_varint(buf, *maximum).unwrap();
            }
            Frame::DataBlocked { limit } => {
                buf.push(0x14);
                write_varint(buf, *limit).unwrap();
            }
            Frame::StreamDataBlocked {
                stream_id,
                maximum_stream_data,
            } => {
                buf.push(0x15);
                write_varint(buf, *stream_id).unwrap();
                write_varint(buf, *maximum_stream_data).unwrap();
            }
            Frame::StreamsBlocked {
                bidirectional,
                limit,
            } => {
                buf.push(if *bidirectional { 0x16 } else { 0x17 });
                write_varint(buf, *limit).unwrap();
            }
            Frame::NewConnectionId {
                sequence,
                retire_prior_to,
                connection_id,
                reset_token,
            } => {
                buf.push(0x18);
                write_varint(buf, *sequence).unwrap();
                write_varint(buf, *retire_prior_to).unwrap();
                buf.push(connection_id.len() as u8);
                buf.extend_from_slice(connection_id);
                buf.extend_from_slice(reset_token);
            }
            Frame::RetireConnectionId { sequence } => {
                buf.push(0x19);
                write_varint(buf, *sequence).unwrap();
            }
            Frame::PathChallenge { data } => {
                buf.push(0x1A);
                buf.extend_from_slice(data);
            }
            Frame::PathResponse { data } => {
                buf.push(0x1B);
                buf.extend_from_slice(data);
            }
            Frame::ConnectionClose {
                error_code,
                frame_type,
                reason,
                application,
            } => {
                buf.push(if *application { 0x1D } else { 0x1C });
                write_varint(buf, *error_code).unwrap();
                if !application {
                    write_varint(buf, *frame_type).unwrap();
                }
                write_varint(buf, reason.len() as u64).unwrap();
                buf.extend_from_slice(reason.as_bytes());
            }
            Frame::HandshakeDone => buf.push(0x1E),
        }
    }

    /// Decodes a single frame from the front of `buf`, advancing it.  The
    /// frame's byte fields borrow from `buf`.
    pub fn decode(buf: &mut &'a [u8]) -> Result<Frame<'a>, FrameError> {
        let frame_type = read_varint(buf)?;
        let take_bytes = |buf: &mut &'a [u8], len: u64| -> Result<&'a [u8], FrameError> {
            take(buf, len as usize).ok_or(FrameError::Truncated)
        };
        let frame = match frame_type {
            0x00 => Frame::Padding,
            0x01 => Frame::Ping,
            0x02 | 0x03 => {
                let largest_acknowledged = read_varint(buf)?;
                let ack_delay = read_varint(buf)?;
                let range_count = read_varint(buf)?;
                let first_ack_range = read_varint(buf)?;
                for _ in 0..range_count {
                    let _gap = read_varint(buf)?;
                    let _len = read_varint(buf)?;
                }
                if frame_type == 0x03 {
                    let _ect0 = read_varint(buf)?;
                    let _ect1 = read_varint(buf)?;
                    let _ce = read_varint(buf)?;
                }
                Frame::Ack {
                    largest_acknowledged,
                    ack_delay,
                    first_ack_range,
                }
            }
            0x04 => Frame::ResetStream {
                stream_id: read_varint(buf)?,
                error_code: read_varint(buf)?,
                final_size: read_varint(buf)?,
            },
            0x05 => Frame::StopSending {
                stream_id: read_varint(buf)?,
                error_code: read_varint(buf)?,
            },
            0x06 => {
                let offset = read_varint(buf)?;
                let len = read_varint(buf)?;
                Frame::Crypto {
                    offset,
                    data: Cow::Borrowed(take_bytes(buf, len)?),
                }
            }
            0x07 => {
                let len = read_varint(buf)?;
                Frame::NewToken {
                    token: Cow::Borrowed(take_bytes(buf, len)?),
                }
            }
            0x08..=0x0F => {
                let has_offset = frame_type & 0x04 != 0;
                let has_len = frame_type & 0x02 != 0;
                let fin = frame_type & 0x01 != 0;
                let stream_id = read_varint(buf)?;
                let offset = if has_offset { read_varint(buf)? } else { 0 };
                let data = if has_len {
                    let len = read_varint(buf)?;
                    take_bytes(buf, len)?
                } else {
                    std::mem::take(buf)
                };
                Frame::Stream {
                    stream_id,
                    offset,
                    fin,
                    data: Cow::Borrowed(data),
                }
            }
            0x10 => Frame::MaxData {
                maximum: read_varint(buf)?,
            },
            0x11 => Frame::MaxStreamData {
                stream_id: read_varint(buf)?,
                maximum: read_varint(buf)?,
            },
            0x12 | 0x13 => Frame::MaxStreams {
                bidirectional: frame_type == 0x12,
                maximum: read_varint(buf)?,
            },
            0x14 => Frame::DataBlocked {
                limit: read_varint(buf)?,
            },
            0x15 => Frame::StreamDataBlocked {
                stream_id: read_varint(buf)?,
                maximum_stream_data: read_varint(buf)?,
            },
            0x16 | 0x17 => Frame::StreamsBlocked {
                bidirectional: frame_type == 0x16,
                limit: read_varint(buf)?,
            },
            0x18 => {
                let sequence = read_varint(buf)?;
                let retire_prior_to = read_varint(buf)?;
                let [cid_len] = take_array(buf).ok_or(FrameError::Truncated)?;
                let connection_id = take_bytes(buf, u64::from(cid_len))?;
                let reset_token = take_array(buf).ok_or(FrameError::Truncated)?;
                Frame::NewConnectionId {
                    sequence,
                    retire_prior_to,
                    connection_id: Cow::Borrowed(connection_id),
                    reset_token,
                }
            }
            0x19 => Frame::RetireConnectionId {
                sequence: read_varint(buf)?,
            },
            0x1A | 0x1B => {
                let data = take_array(buf).ok_or(FrameError::Truncated)?;
                if frame_type == 0x1A {
                    Frame::PathChallenge { data }
                } else {
                    Frame::PathResponse { data }
                }
            }
            0x1C | 0x1D => {
                let application = frame_type == 0x1D;
                let error_code = read_varint(buf)?;
                let ft = if application { 0 } else { read_varint(buf)? };
                let len = read_varint(buf)?;
                Frame::ConnectionClose {
                    error_code,
                    frame_type: ft,
                    reason: String::from_utf8_lossy(take_bytes(buf, len)?),
                    application,
                }
            }
            0x1E => Frame::HandshakeDone,
            other => return Err(FrameError::UnknownType(other)),
        };
        Ok(frame)
    }

    /// Decodes every frame in a payload, appending them to `frames`.  On
    /// error `frames` keeps the frames decoded before the bad one.
    pub fn decode_into(
        mut payload: &'a [u8],
        frames: &mut Vec<Frame<'a>>,
    ) -> Result<(), FrameError> {
        while !payload.is_empty() {
            frames.push(Frame::decode(&mut payload)?);
        }
        Ok(())
    }

    /// Decodes every frame in a payload.
    pub fn decode_all(payload: &'a [u8]) -> Result<Vec<Frame<'a>>, FrameError> {
        let mut frames = Vec::new();
        Frame::decode_into(payload, &mut frames)?;
        Ok(frames)
    }

    /// Encodes a list of frames into a payload.
    pub fn encode_all(frames: &[Frame<'_>]) -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in frames {
            frame.encode(&mut buf);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame<'static>> {
        vec![
            Frame::Padding,
            Frame::Ping,
            Frame::Ack {
                largest_acknowledged: 17,
                ack_delay: 3,
                first_ack_range: 2,
            },
            Frame::ResetStream {
                stream_id: 4,
                error_code: 9,
                final_size: 100,
            },
            Frame::StopSending {
                stream_id: 4,
                error_code: 1,
            },
            Frame::Crypto {
                offset: 0,
                data: Cow::Borrowed(b"client hello"),
            },
            Frame::NewToken {
                token: Cow::Borrowed(b"tok"),
            },
            Frame::Stream {
                stream_id: 0,
                offset: 64,
                fin: true,
                data: Cow::Borrowed(b"GET /"),
            },
            Frame::MaxData { maximum: 65_536 },
            Frame::MaxStreamData {
                stream_id: 0,
                maximum: 32_768,
            },
            Frame::MaxStreams {
                bidirectional: true,
                maximum: 100,
            },
            Frame::DataBlocked { limit: 65_536 },
            Frame::StreamDataBlocked {
                stream_id: 0,
                maximum_stream_data: 0,
            },
            Frame::StreamsBlocked {
                bidirectional: false,
                limit: 10,
            },
            Frame::NewConnectionId {
                sequence: 1,
                retire_prior_to: 0,
                connection_id: Cow::Borrowed(&[1, 2, 3, 4]),
                reset_token: [7; 16],
            },
            Frame::RetireConnectionId { sequence: 0 },
            Frame::PathChallenge {
                data: [1, 2, 3, 4, 5, 6, 7, 8],
            },
            Frame::PathResponse {
                data: [8, 7, 6, 5, 4, 3, 2, 1],
            },
            Frame::ConnectionClose {
                error_code: 0x0A,
                frame_type: 0x1E,
                reason: "protocol violation".into(),
                application: false,
            },
            Frame::HandshakeDone,
        ]
    }

    #[test]
    fn all_twenty_frame_types_round_trip() {
        let frames = sample_frames();
        assert_eq!(frames.len(), 20);
        let encoded = Frame::encode_all(&frames);
        let decoded = Frame::decode_all(&encoded).unwrap();
        assert_eq!(decoded, frames);
    }

    #[test]
    fn frame_type_names_cover_the_paper_notation() {
        let names: Vec<&str> = FrameType::ALL.iter().map(|t| t.name()).collect();
        for expected in [
            "ACK",
            "CRYPTO",
            "STREAM",
            "HANDSHAKE_DONE",
            "MAX_DATA",
            "MAX_STREAM_DATA",
            "STREAM_DATA_BLOCKED",
            "CONNECTION_CLOSE",
        ] {
            assert!(names.contains(&expected), "missing frame name {expected}");
        }
        assert_eq!(FrameType::ALL.len(), 20);
        assert_eq!(FrameType::from_name("ACK"), Some(FrameType::Ack));
        assert_eq!(FrameType::from_name("NOPE"), None);
        assert_eq!(FrameType::HandshakeDone.to_string(), "HANDSHAKE_DONE");
    }

    #[test]
    fn frame_types_match_their_variants() {
        for frame in sample_frames() {
            let t = frame.frame_type();
            assert_eq!(t.name(), FrameType::from_name(t.name()).unwrap().name());
        }
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(!Frame::Padding.is_ack_eliciting());
        assert!(!Frame::Ack {
            largest_acknowledged: 0,
            ack_delay: 0,
            first_ack_range: 0
        }
        .is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            frame_type: 0,
            reason: "".into(),
            application: true
        }
        .is_ack_eliciting());
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::HandshakeDone.is_ack_eliciting());
        assert!(Frame::Stream {
            stream_id: 0,
            offset: 0,
            fin: false,
            data: Cow::Borrowed(&[])
        }
        .is_ack_eliciting());
    }

    #[test]
    fn stream_fin_bit_round_trips() {
        for fin in [false, true] {
            let f = Frame::Stream {
                stream_id: 8,
                offset: 0,
                fin,
                data: Cow::Borrowed(b"d"),
            };
            let encoded = Frame::encode_all(std::slice::from_ref(&f));
            let decoded = Frame::decode_all(&encoded).unwrap();
            assert_eq!(decoded, vec![f]);
        }
    }

    #[test]
    fn application_close_round_trips_without_frame_type_field() {
        let f = Frame::ConnectionClose {
            error_code: 3,
            frame_type: 0,
            reason: "bye".into(),
            application: true,
        };
        let encoded = Frame::encode_all(std::slice::from_ref(&f));
        let decoded = Frame::decode_all(&encoded).unwrap();
        assert_eq!(decoded, vec![f]);
    }

    #[test]
    fn decode_errors() {
        // Unknown frame type.
        let mut buf = Vec::new();
        write_varint(&mut buf, 0x30).unwrap();
        assert!(matches!(
            Frame::decode_all(&buf),
            Err(FrameError::UnknownType(0x30))
        ));
        // Truncated CRYPTO frame (declares more data than present).
        let mut buf = vec![0x06];
        write_varint(&mut buf, 0).unwrap();
        write_varint(&mut buf, 100).unwrap();
        buf.extend_from_slice(b"short");
        let err = Frame::decode_all(&buf).unwrap_err();
        assert!(matches!(err, FrameError::Truncated));
        assert!(err.to_string().contains("truncated"));
        // Truncated varint.
        let err = Frame::decode_all(&[0x02, 0xC0]).unwrap_err();
        assert!(matches!(err, FrameError::VarInt(_)));
    }
}
