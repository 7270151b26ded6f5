// Message aggregation (paper §IV): instead of sending every remotely
// routed stream as its own transport message, the master coalesces
// streams per destination rank into packed multi-stream frames. Fine
// patch-granular sweeps emit very many small boundary-flux streams; the
// per-message cost (latency, header, matching) dominates unless they are
// batched. A StreamBatcher holds the pending streams of one destination,
// sharded by target program, and flushes on three triggers:
//
//   - size: the pending payload reaches MaxBatchBytes;
//   - count: the pending stream count reaches MaxBatchStreams;
//   - deadline: the oldest pending stream has waited FlushInterval, or
//     the process has gone quiescent — so termination detection never
//     stalls behind a half-full batch.
package runtime

import (
	"time"

	"jsweep/internal/core"
)

// AggregationConfig holds the outbound message-aggregation knobs.
type AggregationConfig struct {
	// Enabled turns stream aggregation on. When off, every routed worker
	// cycle sends its remote streams immediately (the pre-aggregation
	// behaviour).
	Enabled bool
	// MaxBatchStreams flushes a destination once this many streams are
	// pending (default 64).
	MaxBatchStreams int
	// MaxBatchBytes flushes a destination once the pending encoded size
	// reaches this many bytes (default 64 KiB).
	MaxBatchBytes int
	// FlushInterval bounds how long a pending stream may wait before the
	// master force-flushes its batch (default 200µs). It is the liveness
	// bound: downstream ranks see their inputs at most one interval after
	// production even when batches never fill.
	FlushInterval time.Duration
	// Shards is the number of per-destination routing shards; streams are
	// sharded by target program key so the receiver can unpack shards
	// independently (default 1).
	Shards int
}

// withDefaults fills unset knobs with their defaults.
func (c AggregationConfig) withDefaults() AggregationConfig {
	if c.MaxBatchStreams <= 0 {
		c.MaxBatchStreams = 64
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 64 << 10
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// FlushReason says what triggered a batch flush.
type FlushReason int

const (
	// FlushSize fired because the batch hit MaxBatchBytes or
	// MaxBatchStreams.
	FlushSize FlushReason = iota
	// FlushDeadline fired because the oldest pending stream aged past
	// FlushInterval or the process went quiescent.
	FlushDeadline
)

// StreamBatcher accumulates outbound streams for one destination rank and
// packs them into aggregated frames. It is not safe for concurrent use;
// the owning master serializes access (one batcher per destination per
// process, the sharding is inside the frame).
type StreamBatcher struct {
	dest   int
	cfg    AggregationConfig
	shards [][]core.Stream

	pendingStreams int
	pendingBytes   int // encoded frame size of the pending streams
	oldest         time.Time
}

// NewStreamBatcher creates a batcher for destination rank dest. Zero
// config fields take their defaults.
func NewStreamBatcher(dest int, cfg AggregationConfig) *StreamBatcher {
	cfg = cfg.withDefaults()
	return &StreamBatcher{
		dest:   dest,
		cfg:    cfg,
		shards: make([][]core.Stream, cfg.Shards),
	}
}

// Dest returns the destination rank this batcher feeds.
func (b *StreamBatcher) Dest() int { return b.dest }

// shardOf routes a stream to its frame shard by target program key.
func (b *StreamBatcher) shardOf(s *core.Stream) int {
	if b.cfg.Shards == 1 {
		return 0
	}
	// FNV-1a over the target key: stable, cheap, spreads patch/task pairs.
	h := uint32(2166136261)
	for _, v := range [2]uint32{uint32(s.TgtPatch), uint32(s.TgtTask)} {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= 16777619
		}
	}
	return int(h % uint32(b.cfg.Shards))
}

// Add appends a stream to the batch at time now and reports whether a
// size/count trigger fired: the caller must Flush before sending more
// work elsewhere.
func (b *StreamBatcher) Add(now time.Time, s core.Stream) (full bool) {
	if b.pendingStreams == 0 {
		b.oldest = now
		b.pendingBytes = core.FrameHeaderSize + 4*len(b.shards)
	}
	sh := b.shardOf(&s)
	b.shards[sh] = append(b.shards[sh], s)
	b.pendingStreams++
	b.pendingBytes += core.EncodedStreamSize(&s)
	return b.pendingStreams >= b.cfg.MaxBatchStreams || b.pendingBytes >= b.cfg.MaxBatchBytes
}

// Pending returns the number of buffered streams.
func (b *StreamBatcher) Pending() int { return b.pendingStreams }

// Full reports whether a size/count flush trigger has been reached.
func (b *StreamBatcher) Full() bool {
	return b.pendingStreams >= b.cfg.MaxBatchStreams || b.pendingBytes >= b.cfg.MaxBatchBytes
}

// PendingBytes returns the encoded size the next flush would produce
// (0 when empty).
func (b *StreamBatcher) PendingBytes() int {
	if b.pendingStreams == 0 {
		return 0
	}
	return b.pendingBytes
}

// Expired reports whether the oldest pending stream has waited at least
// FlushInterval at time now.
func (b *StreamBatcher) Expired(now time.Time) bool {
	return b.pendingStreams > 0 && now.Sub(b.oldest) >= b.cfg.FlushInterval
}

// Deadline returns the time by which the batch must flush; ok=false when
// nothing is pending.
func (b *StreamBatcher) Deadline() (t time.Time, ok bool) {
	if b.pendingStreams == 0 {
		return time.Time{}, false
	}
	return b.oldest.Add(b.cfg.FlushInterval), true
}

// Flush encodes the pending streams as one aggregated frame appended to
// dst, resets the batcher, and returns the extended buffer plus the
// flushed stream count. With nothing pending it returns dst unchanged and
// n=0. The frame holds copies: the flushed payloads — handed over to the
// runtime at their program's Output — are recycled here, and the shards
// are cleared so nothing reaches a released buffer through the batcher.
func (b *StreamBatcher) Flush(dst []byte) (buf []byte, n int) {
	if b.pendingStreams == 0 {
		return dst, 0
	}
	n = b.pendingStreams
	dst = core.EncodeFrame(dst, b.shards)
	for i := range b.shards {
		releasePayloads(b.shards[i])
		b.shards[i] = b.shards[i][:0]
	}
	b.pendingStreams = 0
	b.pendingBytes = 0
	return dst, n
}
