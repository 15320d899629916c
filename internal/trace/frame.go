package trace

// Segment record framing for the durable event store (internal/wal). A
// frame is
//
//	[4-byte little-endian payload length][4-byte CRC32-C of payload][payload]
//
// — exactly enough structure to detect a torn tail (a crash mid-write) and
// silent corruption, while keeping the payload opaque: the WAL's event
// payloads are NDJSON lines as ingest received them (for canonical
// clients, exactly AppendWireEvent's lines), so the zero-alloc decoder is
// also the log reader. The helpers live here, next to the wire codec, so
// internal/wal stays a generic segmented log.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// FrameHeaderSize is the fixed per-record framing overhead in bytes.
const FrameHeaderSize = 8

// crcCastagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64), shared by the framer and its tests.
var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. ErrFrameTorn means the buffer ends mid-frame (the normal
// shape of a crash mid-append: truncate and move on); ErrFrameCRC means a
// complete frame whose payload fails its checksum (bit rot, or a torn
// write that happened to leave a full-length header).
var (
	ErrFrameTorn = errors.New("trace: torn frame (buffer ends mid-record)")
	ErrFrameCRC  = errors.New("trace: frame payload fails its CRC32C checksum")
)

// AppendFrame appends one framed record carrying payload to dst and
// returns the extended slice. It performs no allocation beyond growing dst.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcCastagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame parses the first frame in b, returning the payload (aliasing
// b), the remainder after the frame, and an error. maxPayload bounds the
// declared length so garbage headers cannot demand absurd reads; lengths
// beyond it are reported as ErrFrameCRC (the header itself is corrupt, not
// merely truncated).
func ReadFrame(b []byte, maxPayload int) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderSize {
		return nil, b, ErrFrameTorn
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n < 0 || n > maxPayload {
		return nil, b, ErrFrameCRC
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	if len(b) < FrameHeaderSize+n {
		return nil, b, ErrFrameTorn
	}
	payload = b[FrameHeaderSize : FrameHeaderSize+n]
	if crc32.Checksum(payload, crcCastagnoli) != want {
		return nil, b, ErrFrameCRC
	}
	return payload, b[FrameHeaderSize+n:], nil
}
