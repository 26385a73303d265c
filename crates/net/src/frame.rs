//! Length-prefixed binary frames and the little-endian writer.
//!
//! A frame is a 4-byte little-endian payload length followed by the
//! payload; the payload's first byte is the message tag (see
//! [`crate::msg`]). Unlike the client protocol's JSON frames, these
//! carry packed `f32` arrays (halo beliefs, diffs, posteriors), so the
//! body is raw bytes — the reader side decodes with the bounds-checked
//! [`credo_io::ByteReader`] and returns errors, never panics.

use crate::msg::WireMsg;
use std::io::{Read, Write};

/// Maximum accepted frame payload (256 MiB). Worker frames carry whole
/// halo/posterior arrays for million-node graphs, so the cap is much
/// higher than the client protocol's; it still guards the length prefix
/// against garbage from a confused peer.
pub const MAX_WIRE_FRAME: u32 = 256 << 20;

/// Little-endian byte sink mirroring [`credo_io::ByteReader`]'s layout
/// conventions: arrays are a `u32` element count followed by the packed
/// elements, strings a `u32` byte count followed by UTF-8 bytes.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32` (bit pattern preserved exactly).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `u32` array.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }

    /// Appends a length-prefixed `f32` array, bit patterns preserved.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Writes one framed message.
pub fn write_msg<W: Write>(w: &mut W, msg: &WireMsg) -> std::io::Result<()> {
    write_frame(w, &msg.encode())
}

/// Writes one already-encoded payload ([`WireMsg::encode`]) as a frame —
/// for sending the same message to several peers without re-encoding.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u64;
    if len == 0 || len > MAX_WIRE_FRAME as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("wire frame of {len} bytes exceeds MAX_WIRE_FRAME"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one framed message. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer hung up between messages); any truncated or
/// undecodable frame is an `InvalidData`/`UnexpectedEof` error — never a
/// panic.
pub fn read_msg<R: Read>(r: &mut R) -> std::io::Result<Option<WireMsg>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_WIRE_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad wire frame length {len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let msg = WireMsg::decode(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &WireMsg::Ping).unwrap();
        write_msg(&mut buf, &WireMsg::Pong).unwrap();
        let mut r = &buf[..];
        assert!(matches!(read_msg(&mut r).unwrap(), Some(WireMsg::Ping)));
        assert!(matches!(read_msg(&mut r).unwrap(), Some(WireMsg::Pong)));
        assert!(read_msg(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected() {
        for len in [0u32, MAX_WIRE_FRAME + 1] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(&[0u8; 8]);
            assert!(read_msg(&mut &buf[..]).is_err(), "length {len}");
        }
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        write_msg(
            &mut buf,
            &WireMsg::Sweep {
                graph: "g0".into(),
                run_id: 7,
                sweep: 3,
                halo: vec![0.25, 0.75],
            },
        )
        .unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            let got = read_msg(&mut r);
            assert!(
                matches!(got, Err(_) | Ok(None)),
                "prefix of {cut} bytes decoded as a full frame"
            );
        }
    }
}
