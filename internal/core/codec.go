package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"jsweep/internal/comm"
	"jsweep/internal/mesh"
)

// Stream wire format (little endian):
//
//	batch  := count:u32 { stream }*count
//	stream := srcPatch:i32 srcTask:i32 tgtPatch:i32 tgtTask:i32
//	          payloadLen:u32 payload:bytes
//
// Streams cross process boundaries only in this packed form; the
// pack/unpack cost is one of the runtime-overhead categories of paper
// Fig. 16.
//
// Aggregated (multi-stream) frame format, used by the runtime's
// StreamBatcher to coalesce many routed streams into one transport
// message (paper §IV: per-destination message aggregation):
//
//	frame := magic:u16 version:u8 flags:u8 shardCount:u32 { batch }*shardCount
//
// Each shard is an independently decodable stream batch; the batcher
// shards streams by target program so a receiver could unpack shards
// concurrently. A frame with a wrong magic or version is rejected, as is
// any truncation — corrupt input must surface an error, never a panic.

// StreamHeaderSize is the fixed wire overhead per encoded stream
// (addressing + payload length).
const StreamHeaderSize = 4*4 + 4

const streamHeaderSize = StreamHeaderSize

// EncodedStreamSize returns the wire size of one stream inside a batch
// or frame (header + payload).
func EncodedStreamSize(s *Stream) int { return streamHeaderSize + len(s.Payload) }

// Frame constants for the aggregated multi-stream frame format.
const (
	// FrameMagic marks the start of an aggregated stream frame.
	FrameMagic = uint16(0x4A53) // "JS"
	// FrameVersion is the current frame layout version.
	FrameVersion = byte(1)
	// FrameHeaderSize is the fixed frame header length in bytes.
	FrameHeaderSize = 2 + 1 + 1 + 4
)

// EncodedSize returns the wire size of a batch of streams.
func EncodedSize(streams []Stream) int {
	n := 4
	for i := range streams {
		n += streamHeaderSize + len(streams[i].Payload)
	}
	return n
}

// EncodeStreams packs a batch of streams, appending to dst (which may be
// nil) and returning the extended slice.
func EncodeStreams(dst []byte, streams []Stream) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(streams)))
	for i := range streams {
		s := &streams[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.SrcPatch))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.SrcTask))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.TgtPatch))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.TgtTask))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Payload)))
		dst = append(dst, s.Payload...)
	}
	return dst
}

// DecodeStreams unpacks a batch of streams. Payloads are copied out of buf
// so the caller may reuse it.
func DecodeStreams(buf []byte) ([]Stream, error) {
	return AppendDecodedStreams(nil, buf)
}

// AppendDecodedStreams is DecodeStreams into a caller-owned slice: the
// decoded streams are appended to dst (on error dst comes back at its
// original length). Each payload is copied into its own buffer from
// comm.GetBuffer — the target program's Input releases it, as it does for a
// locally routed payload.
func AppendDecodedStreams(dst []Stream, buf []byte) ([]Stream, error) {
	out, off, err := decodeStreamsAt(dst, buf, 0)
	if err != nil {
		return dst, err
	}
	if off != len(buf) {
		return dst, fmt.Errorf("core: %d trailing bytes after stream batch", len(buf)-off)
	}
	return out, nil
}

// decodeStreamsAt unpacks one stream batch starting at off, appending the
// streams to dst, and returns the extended slice plus the offset just past
// the batch.
func decodeStreamsAt(dst []Stream, buf []byte, off int) ([]Stream, int, error) {
	if len(buf)-off < 4 {
		return dst, off, fmt.Errorf("core: stream batch truncated (len %d)", len(buf)-off)
	}
	count := binary.LittleEndian.Uint32(buf[off:])
	off += 4
	// A batch of `count` streams needs at least count×header bytes: reject
	// inflated counts before allocating.
	if int64(count)*int64(streamHeaderSize) > int64(len(buf)-off) {
		return dst, off, fmt.Errorf("core: stream count %d exceeds remaining %d bytes", count, len(buf)-off)
	}
	out := slices.Grow(dst, int(count))
	for i := uint32(0); i < count; i++ {
		if len(buf)-off < streamHeaderSize {
			return dst, off, fmt.Errorf("core: stream %d header truncated", i)
		}
		s := Stream{
			SrcPatch: mesh.PatchID(int32(binary.LittleEndian.Uint32(buf[off:]))),
			SrcTask:  TaskTag(int32(binary.LittleEndian.Uint32(buf[off+4:]))),
			TgtPatch: mesh.PatchID(int32(binary.LittleEndian.Uint32(buf[off+8:]))),
			TgtTask:  TaskTag(int32(binary.LittleEndian.Uint32(buf[off+12:]))),
		}
		plen := int(binary.LittleEndian.Uint32(buf[off+16:]))
		off += streamHeaderSize
		if plen < 0 || len(buf)-off < plen {
			return dst, off, fmt.Errorf("core: stream %d payload truncated (%d of %d bytes)", i, len(buf)-off, plen)
		}
		if plen > 0 {
			s.Payload = append(comm.GetBuffer(plen), buf[off:off+plen]...)
			off += plen
		}
		out = append(out, s)
	}
	return out, off, nil
}

// EncodedFrameSize returns the wire size of an aggregated frame holding
// the given shards.
func EncodedFrameSize(shards [][]Stream) int {
	n := FrameHeaderSize
	for _, sh := range shards {
		n += EncodedSize(sh)
	}
	return n
}

// EncodeFrame packs a sharded multi-stream frame, appending to dst (which
// may be nil) and returning the extended slice. Empty shards are legal and
// preserved (the shard count is part of the wire format).
func EncodeFrame(dst []byte, shards [][]Stream) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, FrameMagic)
	dst = append(dst, FrameVersion, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(shards)))
	for _, sh := range shards {
		dst = EncodeStreams(dst, sh)
	}
	return dst
}

// DecodeFrame unpacks an aggregated frame into its shards. It validates
// magic, version, shard count and every inner batch; any corruption or
// truncation is an error, never a panic. It is AppendDecodedFrame cut back
// into shards, for callers that care where one shard ends (tests, tools).
func DecodeFrame(buf []byte) ([][]Stream, error) {
	var ends []int
	flat, err := appendDecodedFrame(nil, &ends, buf)
	if err != nil {
		return nil, err
	}
	shards := make([][]Stream, len(ends))
	start := 0
	for i, end := range ends {
		shards[i] = flat[start:end:end]
		start = end
	}
	return shards, nil
}

// AppendDecodedFrame is the frame decoder the runtime uses: the streams of
// every shard are appended to the caller-owned dst in shard order (on error
// dst comes back at its original length). Payloads are pooled copies, as
// in AppendDecodedStreams.
func AppendDecodedFrame(dst []Stream, buf []byte) ([]Stream, error) {
	return appendDecodedFrame(dst, nil, buf)
}

// appendDecodedFrame is the one walk over a frame. With ends non-nil it
// also records len(out) after each shard, so DecodeFrame can cut the flat
// result back into shards.
func appendDecodedFrame(dst []Stream, ends *[]int, buf []byte) ([]Stream, error) {
	if len(buf) < FrameHeaderSize {
		return dst, fmt.Errorf("core: frame truncated (len %d < header %d)", len(buf), FrameHeaderSize)
	}
	if magic := binary.LittleEndian.Uint16(buf); magic != FrameMagic {
		return dst, fmt.Errorf("core: bad frame magic %#04x", magic)
	}
	if buf[2] != FrameVersion {
		return dst, fmt.Errorf("core: unsupported frame version %d", buf[2])
	}
	if buf[3] != 0 {
		return dst, fmt.Errorf("core: reserved frame flags %#02x must be zero", buf[3])
	}
	shardCount := binary.LittleEndian.Uint32(buf[4:])
	off := FrameHeaderSize
	// Every shard carries at least its 4-byte count.
	if int64(shardCount)*4 > int64(len(buf)-off) {
		return dst, fmt.Errorf("core: shard count %d exceeds remaining %d bytes", shardCount, len(buf)-off)
	}
	if ends != nil {
		*ends = make([]int, 0, shardCount)
	}
	out := dst
	for i := uint32(0); i < shardCount; i++ {
		var err error
		if out, off, err = decodeStreamsAt(out, buf, off); err != nil {
			return dst, fmt.Errorf("core: frame shard %d: %w", i, err)
		}
		if ends != nil {
			*ends = append(*ends, len(out))
		}
	}
	if off != len(buf) {
		return dst, fmt.Errorf("core: %d trailing bytes after frame", len(buf)-off)
	}
	return out, nil
}
