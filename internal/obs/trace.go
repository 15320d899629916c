package obs

// Sampled span tracing: a Tracer hands out span ids for a sampled subset
// of requests and records completed spans into a fixed-size lock-free
// ring. The design splits the cost asymmetrically:
//
//   - Sampling OFF (the default, SetSampleEvery(0)): StartRoot returns 0,
//     every downstream Child/Record call short-circuits on the zero id,
//     and the hot path pays one atomic load per root decision and one
//     predictable branch per instrumentation point — no allocation, no
//     stores, no contention.
//   - Sampling ON: each recorded span allocates one small Span value and
//     publishes it with an atomic pointer store into the ring. Readers
//     (GET /debug/trace) load pointers without locks; a torn read is
//     impossible because slots hold immutable *Span values.
//
// The ring keeps the most recent Cap() spans; older ones are overwritten.
// Ids are daemon-unique (a single atomic counter), so a parent id fished
// out of the ring unambiguously names its span even across overwrites.

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// Span is one completed trace span. Parent is 0 for roots. Times are wall
// clock Unix nanoseconds so spans from different goroutines order on one
// axis.
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Stream  string `json:"stream,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer is the sampled span recorder. The zero value is unusable; create
// with NewTracer. All methods are safe for concurrent use; all are safe on
// a nil receiver (they behave as "sampling off").
type Tracer struct {
	sampleEvery atomic.Int64  // 0 = off, N = trace every Nth root
	rootSeq     atomic.Uint64 // StartRoot admissions counter (sampled or not)
	nextID      atomic.Uint64 // span id allocator; ids start at 1
	cursor      atomic.Uint64 // next ring slot to claim
	recorded    atomic.Uint64 // spans recorded over the tracer's lifetime

	ring []atomic.Pointer[Span]
	mask uint64
}

// minTraceRing is the smallest ring NewTracer will build.
const minTraceRing = 64

// NewTracer returns a tracer whose ring retains the most recent spans.
// Capacity is rounded up to a power of two, minimum 64. Sampling starts
// off; enable with SetSampleEvery.
func NewTracer(capacity int) *Tracer {
	n := minTraceRing
	for n < capacity {
		n <<= 1
	}
	return &Tracer{ring: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

// SetSampleEvery sets the root sampling rate: every nth StartRoot call
// begins a traced request; 0 (or negative) turns tracing off. Safe to flip
// at runtime.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	t.sampleEvery.Store(int64(n))
}

// SampleEvery returns the current sampling rate (0 = off).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleEvery.Load())
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Recorded returns the number of spans recorded over the tracer's
// lifetime (not just those still in the ring).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// StartRoot decides whether this request is traced. It returns a fresh
// root span id, or 0 when the request is not sampled — and 0 makes every
// downstream Child/Record call a no-op, so callers thread the id
// unconditionally.
func (t *Tracer) StartRoot() uint64 {
	if t == nil {
		return 0
	}
	n := t.sampleEvery.Load()
	if n <= 0 {
		return 0
	}
	if t.rootSeq.Add(1)%uint64(n) != 0 {
		return 0
	}
	return t.nextID.Add(1)
}

// Child allocates a span id under parent, or returns 0 when the parent is
// unsampled (id 0), keeping the whole chain free when sampling is off.
func (t *Tracer) Child(parent uint64) uint64 {
	if t == nil || parent == 0 {
		return 0
	}
	return t.nextID.Add(1)
}

// Record publishes a completed span into the ring. Spans with ID 0 (the
// unsampled chain) are dropped before any work happens; this is the one
// branch instrumentation points pay when tracing is off.
func (t *Tracer) Record(sp Span) {
	if t == nil || sp.ID == 0 {
		return
	}
	slot := (t.cursor.Add(1) - 1) & t.mask
	p := new(Span)
	*p = sp
	t.ring[slot].Store(p)
	t.recorded.Add(1)
}

// Snapshot returns up to max recorded spans, oldest first, newest last
// (ring order; concurrent writers may overwrite the oldest entries while
// the snapshot walks). max <= 0 means the whole ring.
func (t *Tracer) Snapshot(max int) []Span {
	if t == nil {
		return nil
	}
	n := len(t.ring)
	if max <= 0 || max > n {
		max = n
	}
	// Walk the ring from the oldest retained slot forward so the output is
	// (approximately) chronological even after wraparound.
	cur := t.cursor.Load()
	out := make([]Span, 0, max)
	start := uint64(0)
	if cur > uint64(max) {
		start = cur - uint64(max)
	}
	for i := start; i < cur && i < start+uint64(n); i++ {
		if p := t.ring[i&t.mask].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// WriteJSONL writes up to max recent spans to w, one JSON object per line
// (the GET /debug/trace exposition format). It returns the number of
// spans written.
func (t *Tracer) WriteJSONL(w io.Writer, max int) (int, error) {
	spans := t.Snapshot(max)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return i, err
		}
	}
	return len(spans), nil
}
