package trace

// NDJSON ingest wire format. One line of a qserved ingest body is one JSON
// object describing one arrival/departure pair of one task at one queue.
// This file holds the wire struct (WireEvent), a hand-rolled decoder that
// parses canonical lines with zero allocations (DecodeEventLine), and the
// matching encoder (AppendWireEvent). Numbers are validated and
// accumulated in one pass and converted by eisel_lemire.go.
//
// The decoder's contract is differential: for every input it accepts or
// rejects exactly as encoding/json does when unmarshalling into a
// WireEvent, and on acceptance produces the same field values (enforced by
// FuzzNDJSONDecode). The fast path covers the canonical grammar — exact
// lowercase keys, plain strings without escapes, JSON numbers, true/false/
// null — and anything beyond it (escaped or non-ASCII keys, unknown or
// case-folded fields, string escapes, invalid UTF-8) is delegated to
// encoding/json itself, so exotic inputs are merely slow, never wrong.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// WireEvent is one line of the NDJSON ingest body: one arrival/departure
// pair of one task at one queue. Events of a task must be posted in path
// order — the first event's arrival is the task's system entry time, every
// later arrival must equal the previous event's departure, and the last
// event carries final=true to seal the task. Queue 0 is the implicit
// arrival queue and must not appear.
type WireEvent struct {
	Task    string  `json:"task"`
	State   int     `json:"state"`
	Queue   int     `json:"queue"`
	Arrival float64 `json:"arrival"`
	Depart  float64 `json:"depart"`
	// ObsArrival and ObsDepart mark which times the inference may treat as
	// measured; unobserved times are re-imputed by the sampler.
	ObsArrival bool `json:"obs_arrival,omitempty"`
	ObsDepart  bool `json:"obs_depart,omitempty"`
	Final      bool `json:"final,omitempty"`
}

// RawEvent is the zero-copy decode target of DecodeEventLine. Task aliases
// the input line on the fast path, so it is only valid until the caller
// reuses or discards the line's backing buffer; copy it (or convert to
// string) before retaining.
type RawEvent struct {
	Task       []byte
	State      int
	Queue      int
	Arrival    float64
	Depart     float64
	ObsArrival bool
	ObsDepart  bool
	Final      bool
}

// Static decode errors: the hot path must not allocate, so rejected lines
// return one of these instead of a formatted error. The text only reaches
// humans via per-line ingest error summaries.
var (
	errNDJSONTruncated = errors.New("unexpected end of NDJSON event")
	errNDJSONSyntax    = errors.New("invalid character in NDJSON event")
	errNDJSONType      = errors.New("NDJSON event field has the wrong type")
	errNDJSONNumber    = errors.New("NDJSON number out of range for its field")
)

// DecodeEventLine decodes one NDJSON line into ev, resetting ev first. It
// accepts and rejects exactly as json.Unmarshal(line, &WireEvent{}) and
// yields the same values; canonical lines are decoded with zero
// allocations, others fall back to encoding/json. ev.Task aliases line on
// the fast path (see RawEvent).
func DecodeEventLine(line []byte, ev *RawEvent) error {
	*ev = RawEvent{}
	i := skipJSONSpace(line, 0)
	if i == len(line) {
		return errNDJSONTruncated
	}
	switch line[i] {
	case 'n':
		// A top-level null leaves the target untouched, exactly like
		// json.Unmarshal into a struct pointer.
		return expectJSONTail(line, matchJSONLiteral(line, i, "null"))
	case '{':
	default:
		// Unmarshal into a struct accepts only an object or null; every
		// other top-level value (or malformed input) is rejected.
		return errNDJSONType
	}
	i = skipJSONSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return expectJSONTail(line, i+1)
	}
	for {
		if i >= len(line) {
			return errNDJSONTruncated
		}
		if line[i] != '"' {
			return errNDJSONSyntax
		}
		key, j, simple := scanSimpleJSONString(line, i, false)
		if !simple {
			// Escaped, non-ASCII, or malformed key: let encoding/json
			// decide (it also handles case-folded key matching).
			return decodeEventStdlib(line, ev)
		}
		i = skipJSONSpace(line, j)
		if i >= len(line) {
			return errNDJSONTruncated
		}
		if line[i] != ':' {
			return errNDJSONSyntax
		}
		i = skipJSONSpace(line, i+1)
		if i >= len(line) {
			return errNDJSONTruncated
		}
		if line[i] == 'n' {
			// null is accepted for every field type and leaves the field
			// untouched.
			if i = matchJSONLiteral(line, i, "null"); i < 0 {
				return errNDJSONSyntax
			}
		} else {
			var err error
			switch string(key) { // compiled to alloc-free comparisons
			case "task":
				if line[i] != '"' {
					return errNDJSONType
				}
				s, j, simple := scanSimpleJSONString(line, i, true)
				if !simple || !utf8.Valid(s) {
					// Escapes need unquoting; invalid UTF-8 is coerced to
					// U+FFFD by encoding/json. Both are slow-path cases.
					return decodeEventStdlib(line, ev)
				}
				ev.Task = s
				i = j
			case "state":
				ev.State, i, err = parseJSONInt(line, i)
			case "queue":
				ev.Queue, i, err = parseJSONInt(line, i)
			case "arrival":
				ev.Arrival, i, err = parseJSONFloat(line, i)
			case "depart":
				ev.Depart, i, err = parseJSONFloat(line, i)
			case "obs_arrival":
				ev.ObsArrival, i, err = parseJSONBool(line, i)
			case "obs_depart":
				ev.ObsDepart, i, err = parseJSONBool(line, i)
			case "final":
				ev.Final, i, err = parseJSONBool(line, i)
			default:
				// Unknown field: encoding/json skips its value whatever its
				// shape, so the whole line goes to the slow path.
				return decodeEventStdlib(line, ev)
			}
			if err != nil {
				return err
			}
		}
		i = skipJSONSpace(line, i)
		if i >= len(line) {
			return errNDJSONTruncated
		}
		switch line[i] {
		case ',':
			i = skipJSONSpace(line, i+1)
		case '}':
			return expectJSONTail(line, i+1)
		default:
			return errNDJSONSyntax
		}
	}
}

// decodeEventStdlib is the slow path: a full encoding/json decode of the
// line. Because it IS the reference decoder, delegated lines agree with it
// by construction.
func decodeEventStdlib(line []byte, ev *RawEvent) error {
	var w WireEvent
	// Reset: the fast path may have filled some fields before delegating,
	// and ev.Task must never alias line here (w.Task owns fresh memory).
	*ev = RawEvent{}
	if err := json.Unmarshal(line, &w); err != nil {
		return err
	}
	if w.Task != "" {
		ev.Task = []byte(w.Task)
	}
	ev.State = w.State
	ev.Queue = w.Queue
	ev.Arrival = w.Arrival
	ev.Depart = w.Depart
	ev.ObsArrival = w.ObsArrival
	ev.ObsDepart = w.ObsDepart
	ev.Final = w.Final
	return nil
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// matchJSONLiteral matches lit at b[i:] and returns the index after it, or
// -1 on mismatch.
func matchJSONLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// expectJSONTail asserts that only whitespace follows position i (i < 0
// propagates an upstream mismatch).
func expectJSONTail(b []byte, i int) error {
	if i < 0 {
		return errNDJSONSyntax
	}
	if skipJSONSpace(b, i) != len(b) {
		return errNDJSONSyntax
	}
	return nil
}

// scanSimpleJSONString scans the JSON string whose opening quote is at
// b[i]. It succeeds only for "simple" strings — no escapes, no control
// bytes, and (unless allowHigh) no bytes >= 0x80 — returning the contents
// and the index after the closing quote. Anything else reports
// simple=false and is handled by the slow path.
func scanSimpleJSONString(b []byte, i int, allowHigh bool) (s []byte, next int, simple bool) {
	i++
	start := i
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			return b[start:i], i + 1, true
		case c == '\\' || c < 0x20 || (!allowHigh && c >= utf8.RuneSelf):
			return nil, 0, false
		}
		i++
	}
	return nil, 0, false
}

// jsonNumber is what scanJSONNumber accumulates while it validates one
// number token. The value is (-1)^neg × mant × 10^exp10 exactly, unless
// trunc is set: then mant holds only the first maxMantDigits significant
// digits, and a nonzero digit after them was dropped.
type jsonNumber struct {
	mant  uint64
	exp10 int
	neg   bool
	trunc bool
	isInt bool // no fraction or exponent part
}

// maxMantDigits is how many significant decimal digits always fit in a
// uint64 mantissa.
const maxMantDigits = 19

// scanJSONNumber scans a token satisfying the JSON number grammar starting
// at b[i] and returns the index after it. It checks the grammar and
// accumulates the decimal mantissa and exponent into n in the same pass,
// so literals like "+1" or "01" — which strconv accepts but JSON rejects —
// fail exactly as they do in encoding/json's scanner, and no digit is read
// twice.
func scanJSONNumber(b []byte, i int, n *jsonNumber) (next int, ok bool) {
	var (
		mant  uint64
		nd    int // significant digits; the first maxMantDigits are in mant
		trunc bool
	)
	j := i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			if nd++; nd <= maxMantDigits {
				mant = mant*10 + uint64(b[j]-'0')
			} else if b[j] != '0' {
				trunc = true
			}
		}
	default:
		return 0, false
	}
	dp := nd // decimal point position, counted in significant digits
	isInt := true
	if j < len(b) && b[j] == '.' {
		isInt = false
		j++
		if j >= len(b) || b[j] < '0' || b[j] > '9' {
			return 0, false
		}
		if nd == 0 {
			for ; j < len(b) && b[j] == '0'; j++ {
				dp-- // a leading zero only moves the point
			}
		}
		// The digits from here on are significant. Fractions carry most of
		// a time's digits, so they are read eight at a time first.
		for nd <= maxMantDigits-8 {
			v, ok := eightDigits(b, j)
			if !ok {
				break
			}
			mant = mant*1e8 + v
			nd += 8
			j += 8
		}
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			if nd++; nd <= maxMantDigits {
				mant = mant*10 + uint64(b[j]-'0')
			} else if b[j] != '0' {
				trunc = true
			}
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		isInt = false
		j++
		eneg := false
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			eneg = b[j] == '-'
			j++
		}
		if j >= len(b) || b[j] < '0' || b[j] > '9' {
			return 0, false
		}
		e := 0
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			if e < 10000 { // far outside float64's range either way
				e = e*10 + int(b[j]-'0')
			}
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	// Field by field: a composite literal is built on the stack and copied
	// with wide moves that stall on the narrow stores just made.
	n.mant = mant
	n.exp10 = dp - min(nd, maxMantDigits)
	n.neg = neg
	n.trunc = trunc
	n.isInt = isInt
	return j, true
}

// eightDigits reads b[j:j+8] as eight ASCII digits, when it is, and
// returns their value: one load, one check and three multiplies instead of
// eight dependent multiply-adds (Lemire, arXiv:2101.11408, §5).
func eightDigits(b []byte, j int) (uint64, bool) {
	if len(b)-j < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(b[j:])
	// A byte below '0' sets its top bit in v-'0'; one above '9' in v+0x46.
	if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // each byte pair now holds a two-digit value
	const mask = 0x000000FF000000FF
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32, true
}

// bytesToString views b as a string without copying. The view must not
// outlive b and must not be retained by the callee — which is why parse
// errors below are mapped to static errors instead of strconv's NumError
// (NumError stores the input string).
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// parseJSONInt decodes an integer field like encoding/json: the token must
// satisfy the JSON number grammar AND parse as a base-10 integer, so "1.5",
// "1e2", "01" and "+1" are all rejected. The value comes straight from the
// scanned mantissa: strconv.ParseInt would allocate a NumError on failure,
// which would break the zero-alloc guarantee on rejected lines.
func parseJSONInt(b []byte, i int) (int, int, error) {
	var n jsonNumber
	j, ok := scanJSONNumber(b, i, &n)
	if !ok {
		return 0, 0, errNDJSONType
	}
	// A fraction or exponent part makes a valid JSON number but an invalid
	// int — exactly strconv.ParseInt's syntax error inside encoding/json.
	// Without them exp10 counts the digits past maxMantDigits, and JSON
	// integers have no leading zeros, so exp10 > 0 means at least 1e19,
	// beyond any int64.
	if !n.isInt || n.exp10 != 0 {
		return 0, 0, errNDJSONNumber
	}
	limit := uint64(math.MaxInt) // magnitude of MinInt is one larger
	if n.neg {
		limit++
	}
	if n.mant > limit {
		return 0, 0, errNDJSONNumber
	}
	v := int(n.mant) // wraps to math.MinInt exactly when mant == MaxInt+1
	if n.neg {
		v = -v // -MinInt wraps back to MinInt, which is the right answer
	}
	return v, j, nil
}

// parseJSONFloat decodes a float field like encoding/json. The scanned
// mantissa and exponent are converted as strconv does it: exactly in
// float64 arithmetic when both operands are exact, else by Eisel–Lemire.
// The few tokens neither can decide — more than maxMantDigits significant digits, subnormal or
// out-of-range results, exact halfway ties — are re-parsed by
// strconv.ParseFloat, which also rejects overflow as encoding/json does.
func parseJSONFloat(b []byte, i int) (float64, int, error) {
	var n jsonNumber
	j, ok := scanJSONNumber(b, i, &n)
	if !ok {
		return 0, 0, errNDJSONType
	}
	if !n.trunc {
		if v, ok := exactFloat64(n.mant, n.exp10, n.neg); ok {
			return v, j, nil
		}
		if v, ok := eiselLemire64(n.mant, n.exp10, n.neg); ok {
			return v, j, nil
		}
	}
	// ParseFloat only fails on range here (the grammar is pre-validated).
	v, err := strconv.ParseFloat(bytesToString(b[i:j]), 64)
	if err != nil {
		return 0, 0, errNDJSONNumber
	}
	return v, j, nil
}

func parseJSONBool(b []byte, i int) (bool, int, error) {
	switch b[i] {
	case 't':
		if j := matchJSONLiteral(b, i, "true"); j >= 0 {
			return true, j, nil
		}
	case 'f':
		if j := matchJSONLiteral(b, i, "false"); j >= 0 {
			return false, j, nil
		}
	}
	return false, 0, errNDJSONType
}

// ---------------------------------------------------------------------------
// Encoder

// errNonFinite rejects events whose times cannot be represented in JSON.
var errNonFinite = errors.New("trace: non-finite event time cannot be encoded as JSON")

// errBadTaskUTF8 rejects task ids that would not round-trip through JSON.
var errBadTaskUTF8 = errors.New("trace: task id is not valid UTF-8")

// AppendWireEvent appends ev as one canonical NDJSON line (terminated by
// '\n') to dst and returns the extended slice. The emitted form is exactly
// the fast decoder's native grammar, and floats use the shortest
// round-tripping representation, so encode→decode is lossless. Events with
// non-finite times or non-UTF-8 task ids are rejected, mirroring
// encoding/json.
func AppendWireEvent(dst []byte, ev *WireEvent) ([]byte, error) {
	if isNonFinite(ev.Arrival) || isNonFinite(ev.Depart) {
		return dst, errNonFinite
	}
	if !utf8.ValidString(ev.Task) {
		return dst, errBadTaskUTF8
	}
	dst = append(dst, `{"task":`...)
	dst = appendJSONString(dst, ev.Task)
	dst = append(dst, `,"state":`...)
	dst = strconv.AppendInt(dst, int64(ev.State), 10)
	dst = append(dst, `,"queue":`...)
	dst = strconv.AppendInt(dst, int64(ev.Queue), 10)
	dst = append(dst, `,"arrival":`...)
	dst = strconv.AppendFloat(dst, ev.Arrival, 'g', -1, 64)
	dst = append(dst, `,"depart":`...)
	dst = strconv.AppendFloat(dst, ev.Depart, 'g', -1, 64)
	if ev.ObsArrival {
		dst = append(dst, `,"obs_arrival":true`...)
	}
	if ev.ObsDepart {
		dst = append(dst, `,"obs_depart":true`...)
	}
	if ev.Final {
		dst = append(dst, `,"final":true`...)
	}
	dst = append(dst, '}', '\n')
	return dst, nil
}

func isNonFinite(v float64) bool {
	// NaN != NaN; the subtraction overflows only for ±Inf.
	return v != v || v-v != 0
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping the two
// mandatory metacharacters and control bytes. Valid UTF-8 passes through
// unescaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
