//! Packets and flits.
//!
//! The network uses a packet-based protocol over 16 B flits (the minimum
//! traffic flow unit). Assuming 64 B cache lines, a read request is a single
//! flit, while write requests and read responses carry a line and occupy
//! five flits (header + 4 data flits).

use memnet_simcore::SimTime;
use serde::{Deserialize, Serialize};

use crate::topology::ModuleId;

/// Flit size in bytes.
pub const FLIT_BYTES: u64 = 16;
/// Memory access granularity in bytes.
pub const LINE_BYTES: u64 = 64;

/// The kind of a network packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A read request traveling toward memory (1 flit).
    ReadRequest,
    /// A write request carrying a 64 B line toward memory (5 flits).
    WriteRequest,
    /// A read response carrying a 64 B line back to the processor (5 flits).
    ReadResponse,
}

impl PacketKind {
    /// Number of flits this packet kind occupies on a link.
    pub const fn flits(self) -> u64 {
        match self {
            PacketKind::ReadRequest => 1,
            PacketKind::WriteRequest | PacketKind::ReadResponse => 1 + LINE_BYTES / FLIT_BYTES,
        }
    }

    /// Whether this packet belongs to a read transaction (read requests and
    /// read responses). The management policies track latency for read
    /// packets only, as writes are off the critical path.
    pub const fn is_read(self) -> bool {
        matches!(self, PacketKind::ReadRequest | PacketKind::ReadResponse)
    }

    /// Whether the packet travels on request links (away from the
    /// processor) as opposed to response links.
    pub const fn is_downstream(self) -> bool {
        matches!(self, PacketKind::ReadRequest | PacketKind::WriteRequest)
    }

    /// The name trace output uses for this kind.
    pub const fn label(self) -> &'static str {
        match self {
            PacketKind::ReadRequest => "ReadRequest",
            PacketKind::WriteRequest => "WriteRequest",
            PacketKind::ReadResponse => "ReadResponse",
        }
    }
}

/// A packet in flight through the memory network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique transaction identifier (shared by a read request and its
    /// response).
    pub id: u64,
    /// What the packet is.
    pub kind: PacketKind,
    /// The memory module holding the addressed line.
    pub dest: ModuleId,
    /// Global line address (line index within the whole physical space).
    pub line_addr: u64,
    /// When the transaction was created at the processor.
    pub created: SimTime,
}

impl Packet {
    /// Number of flits this packet occupies.
    pub fn flits(&self) -> u64 {
        self.kind.flits()
    }

    /// Builds the response packet for this read request.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a [`PacketKind::ReadRequest`].
    pub fn to_response(&self) -> Packet {
        assert_eq!(self.kind, PacketKind::ReadRequest, "only read requests have responses");
        Packet { kind: PacketKind::ReadResponse, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_counts_match_paper() {
        assert_eq!(PacketKind::ReadRequest.flits(), 1);
        assert_eq!(PacketKind::WriteRequest.flits(), 5);
        assert_eq!(PacketKind::ReadResponse.flits(), 5);
    }

    #[test]
    fn read_classification() {
        assert!(PacketKind::ReadRequest.is_read());
        assert!(PacketKind::ReadResponse.is_read());
        assert!(!PacketKind::WriteRequest.is_read());
    }

    #[test]
    fn direction_classification() {
        assert!(PacketKind::ReadRequest.is_downstream());
        assert!(PacketKind::WriteRequest.is_downstream());
        assert!(!PacketKind::ReadResponse.is_downstream());
    }

    #[test]
    fn response_preserves_identity() {
        let req = Packet {
            id: 7,
            kind: PacketKind::ReadRequest,
            dest: ModuleId(3),
            line_addr: 1234,
            created: SimTime::from_ps(55),
        };
        let resp = req.to_response();
        assert_eq!(resp.id, 7);
        assert_eq!(resp.kind, PacketKind::ReadResponse);
        assert_eq!(resp.dest, ModuleId(3));
        assert_eq!(resp.created, req.created);
    }

    #[test]
    #[should_panic(expected = "only read requests")]
    fn response_of_write_panics() {
        let w = Packet {
            id: 1,
            kind: PacketKind::WriteRequest,
            dest: ModuleId(0),
            line_addr: 0,
            created: SimTime::ZERO,
        };
        let _ = w.to_response();
    }
}
