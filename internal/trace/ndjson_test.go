package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// decodeRef is the reference decoder the fast path must agree with.
func decodeRef(line []byte) (WireEvent, error) {
	var w WireEvent
	err := json.Unmarshal(line, &w)
	return w, err
}

// assertDecodeAgrees checks the differential contract on one line: same
// accept/reject verdict as encoding/json, and same field values on accept.
func assertDecodeAgrees(t *testing.T, line []byte) {
	t.Helper()
	orig := append([]byte(nil), line...)
	want, wantErr := decodeRef(line)
	var got RawEvent
	gotErr := DecodeEventLine(line, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdict mismatch on %q: fast err=%v, stdlib err=%v", line, gotErr, wantErr)
	}
	if !bytes.Equal(line, orig) {
		t.Fatalf("DecodeEventLine mutated its input: %q -> %q", orig, line)
	}
	if wantErr != nil {
		return
	}
	if string(got.Task) != want.Task ||
		got.State != want.State || got.Queue != want.Queue ||
		got.Arrival != want.Arrival || got.Depart != want.Depart ||
		got.ObsArrival != want.ObsArrival || got.ObsDepart != want.ObsDepart ||
		got.Final != want.Final {
		t.Fatalf("value mismatch on %q:\n fast   %+v (task %q)\n stdlib %+v", line, got, got.Task, want)
	}
}

// ndjsonSeedCorpus collects lines spanning both the canonical fast-path
// grammar and every fallback / reject category: escapes, unicode, unknown
// and case-folded keys, nulls, malformed numbers, truncations, trailing
// garbage, control bytes, invalid UTF-8, and duplicate keys.
var ndjsonSeedCorpus = []string{
	// canonical accepts
	`{"task":"t0","state":0,"queue":1,"arrival":0,"depart":1.5}`,
	`{"task":"t1","state":3,"queue":2,"arrival":1.5,"depart":2.25,"final":true}`,
	`{"task":"t2","state":1,"queue":1,"arrival":0.125,"depart":0.5,"obs_arrival":true,"obs_depart":true}`,
	`{"task":"a-b_c.9","state":-2,"queue":3,"arrival":1e-3,"depart":2E+2}`,
	`{"task":"x","queue":1,"arrival":-0,"depart":0.0}`,
	`{"depart":4,"arrival":3,"queue":2,"state":1,"task":"reordered"}`,
	`   {"task":"ws","queue":1,"arrival":0,"depart":1}   `,
	"\t{\"task\":\"tabs\",\"queue\":1,\"arrival\":0,\"depart\":1}\r",
	`{}`,
	`{ }`,
	`null`,
	`  null  `,
	`{"task":"","queue":1,"arrival":0,"depart":1}`,
	`{"obs_arrival":false,"obs_depart":false,"final":false}`,
	`{"state":9223372036854775807,"queue":-9223372036854775808}`,
	`{"arrival":1.7976931348623157e308,"depart":-1.7976931348623157e308}`,
	`{"arrival":5e-324,"depart":1e-999}`,
	// null field values (accepted, leave the field untouched)
	`{"task":null,"state":null,"queue":null,"arrival":null,"depart":null,"obs_arrival":null,"obs_depart":null,"final":null}`,
	`{"task":"keep","task":null}`,
	// duplicate keys: last one wins
	`{"queue":1,"queue":2,"arrival":0,"arrival":7}`,
	`{"task":"a","task":"b"}`,
	// fallback: unknown or case-variant keys, escaped keys, escaped strings
	`{"Task":"upper","queue":1}`,
	`{"TASK":"shout"}`,
	`{"extra":"ignored","task":"t","queue":1,"arrival":0,"depart":1}`,
	`{"extra":{"nested":[1,2,{"deep":true}]},"task":"t"}`,
	`{"extra":[[],[[]]],"final":true}`,
	`{"ta\u0073k":"escaped-key"}`,
	`{"task":"a\"b\\c\/d\n\t\u00e9"}`,
	`{"task":"\ud83d\ude00"}`,
	`{"task":"caf\u00e9"}`,
	// fallback: raw UTF-8 task (valid stays fast, invalid falls back)
	`{"task":"héllo","queue":1}`,
	"{\"task\":\"\xff\xfe\"}",
	"{\"\xc3\xa9\":1}",
	// rejects: malformed numbers
	`{"state":01}`,
	`{"state":+1}`,
	`{"state":1.5}`,
	`{"state":1e2}`,
	`{"state":9223372036854775808}`,
	`{"arrival":1e999}`,
	`{"arrival":.5}`,
	`{"arrival":5.}`,
	`{"arrival":1e}`,
	`{"arrival":--1}`,
	`{"arrival":-}`,
	`{"queue":0x1f}`,
	`{"queue":NaN}`,
	`{"queue":Infinity}`,
	// rejects: wrong types
	`{"task":1}`,
	`{"task":true}`,
	`{"task":["a"]}`,
	`{"state":"1"}`,
	`{"arrival":"0.5"}`,
	`{"final":"true"}`,
	`{"final":1}`,
	`{"final":truth}`,
	`{"obs_arrival":True}`,
	// rejects: structural damage
	``,
	` `,
	`{`,
	`{"task"`,
	`{"task":`,
	`{"task":"unterminated`,
	`{"task":"t",}`,
	`{"task":"t" "queue":1}`,
	`{"task":"t";"queue":1}`,
	`{"task" "t"}`,
	`{,}`,
	`{"task":"t"}}`,
	`{"task":"t"}{"task":"u"}`,
	`{"task":"t"} x`,
	`nullx`,
	`nul`,
	`true`,
	`false`,
	`42`,
	`"just a string"`,
	`[{"task":"t"}]`,
	// rejects: control characters inside strings
	"{\"task\":\"a\x00b\"}",
	"{\"task\":\"a\nb\"}",
	"{\"ta\x01sk\":1}",
}

func TestDecodeEventLineDifferential(t *testing.T) {
	for _, line := range ndjsonSeedCorpus {
		assertDecodeAgrees(t, []byte(line))
	}
}

// TestDecodeEventLinePrefixes re-checks the contract on every prefix of a
// few canonical lines — truncation at each byte offset is exactly the
// failure mode a streaming ingest path hits on a split buffer.
func TestDecodeEventLinePrefixes(t *testing.T) {
	lines := []string{
		`{"task":"t1","state":3,"queue":2,"arrival":1.5,"depart":2.25,"final":true}`,
		`{"task":"caf\u00e9","obs_arrival":true}`,
		`null`,
	}
	for _, line := range lines {
		for i := 0; i <= len(line); i++ {
			assertDecodeAgrees(t, []byte(line[:i]))
		}
	}
}

func FuzzNDJSONDecode(f *testing.F) {
	for _, line := range ndjsonSeedCorpus {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := decodeRef(line)
		var got RawEvent
		gotErr := DecodeEventLine(line, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("verdict mismatch on %q: fast err=%v, stdlib err=%v", line, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if string(got.Task) != want.Task ||
			got.State != want.State || got.Queue != want.Queue ||
			got.Arrival != want.Arrival || got.Depart != want.Depart ||
			got.ObsArrival != want.ObsArrival || got.ObsDepart != want.ObsDepart ||
			got.Final != want.Final {
			t.Fatalf("value mismatch on %q:\n fast   %+v (task %q)\n stdlib %+v", line, got, got.Task, want)
		}
	})
}

// TestDecodeAllocFree pins the tentpole's 0 allocs/event claim: canonical
// lines — accepted or rejected — must decode without a single allocation.
func TestDecodeAllocFree(t *testing.T) {
	lines := [][]byte{
		[]byte(`{"task":"alloc-free","state":2,"queue":3,"arrival":10.25,"depart":11.5,"obs_depart":true,"final":true}`),
		[]byte(`{"task":"t0","queue":1,"arrival":0,"depart":1}`),
		[]byte(`null`),
		[]byte(`{}`),
		// canonical-grammar rejects must stay alloc-free too (static errors)
		[]byte(`{"state":1.5}`),
		[]byte(`{"task":"t","queue":`),
	}
	var ev RawEvent
	allocs := testing.AllocsPerRun(200, func() {
		for _, line := range lines {
			_ = DecodeEventLine(line, &ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeEventLine allocated %.1f times per run of %d canonical lines; want 0", allocs, len(lines))
	}
}

func TestAppendWireEventRoundTrip(t *testing.T) {
	events := []WireEvent{
		{Task: "t0", State: 0, Queue: 1, Arrival: 0, Depart: 1.5},
		{Task: "t1", State: -3, Queue: 7, Arrival: 1.5, Depart: 2.25, Final: true},
		{Task: "with\"quote\\and\nctrl", Queue: 1, Arrival: 0.1, Depart: 0.2, ObsArrival: true},
		{Task: "unicode-café-😀", Queue: 2, Arrival: 1e-300, Depart: 1.7976931348623157e308, ObsDepart: true},
		{Task: "", Queue: 1, Arrival: 0.1234567890123456789, Depart: 5e-324},
	}
	var buf []byte
	for _, ev := range events {
		var err error
		buf, err = AppendWireEvent(buf, &ev)
		if err != nil {
			t.Fatalf("AppendWireEvent(%+v): %v", ev, err)
		}
	}
	lines := bytes.Split(bytes.TrimSuffix(buf, []byte("\n")), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("encoded %d events into %d lines", len(events), len(lines))
	}
	for i, line := range lines {
		assertDecodeAgrees(t, line)
		var got RawEvent
		if err := DecodeEventLine(line, &got); err != nil {
			t.Fatalf("round-trip decode of %q: %v", line, err)
		}
		want := events[i]
		if string(got.Task) != want.Task ||
			got.State != want.State || got.Queue != want.Queue ||
			got.Arrival != want.Arrival || got.Depart != want.Depart ||
			got.ObsArrival != want.ObsArrival || got.ObsDepart != want.ObsDepart ||
			got.Final != want.Final {
			t.Fatalf("round-trip mismatch for event %d:\n line %q\n got  %+v (task %q)\n want %+v", i, line, got, got.Task, want)
		}
	}
}

func TestAppendWireEventRejectsUnencodable(t *testing.T) {
	cases := []WireEvent{
		{Task: "t", Queue: 1, Arrival: math.NaN(), Depart: 1},
		{Task: "t", Queue: 1, Arrival: 0, Depart: math.Inf(1)},
		{Task: "t", Queue: 1, Arrival: math.Inf(-1), Depart: 0},
		{Task: "bad\xffutf8", Queue: 1, Arrival: 0, Depart: 1},
	}
	for _, ev := range cases {
		if _, err := AppendWireEvent(nil, &ev); err == nil {
			t.Errorf("AppendWireEvent(%+v) succeeded; want error", ev)
		}
	}
}

// benchCorpus builds one NDJSON body of n canonical events plus the
// parallel WireEvent slice, deterministic so fast/stdlib variants see
// identical input.
func benchCorpus(n int) (body []byte, events []WireEvent) {
	events = make([]WireEvent, n)
	for i := range events {
		a := float64(i) * 0.125
		events[i] = WireEvent{
			Task:       fmt.Sprintf("task-%d", i/4),
			State:      i % 5,
			Queue:      1 + i%3,
			Arrival:    a,
			Depart:     a + 0.0625 + float64(i%7)*0.001,
			ObsArrival: i%2 == 0,
			ObsDepart:  i%3 == 0,
			Final:      i%4 == 3,
		}
		var err error
		body, err = AppendWireEvent(body, &events[i])
		if err != nil {
			panic(err)
		}
	}
	return body, events
}

// forEachLine calls decode on every newline-terminated line of body and
// stops at the first error.
func forEachLine(body []byte, decode func(line []byte) error) error {
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if err := decode(body[:nl]); err != nil {
			return err
		}
		body = body[nl+1:]
	}
	return nil
}

// BenchmarkIngestDecode measures raw line-decode throughput over a body of
// canonical events: the hand-rolled fast path versus encoding/json. Each
// op decodes the full corpus, so allocs/op ÷ events/op = allocs/event.
// TestIngestDecodeSpeedVsStdlib gates the fast path at >= 2x.
func BenchmarkIngestDecode(b *testing.B) {
	const n = 2048
	body, _ := benchCorpus(n)
	run := func(b *testing.B, decode func(line []byte) error) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for b.Loop() {
			if err := forEachLine(body, decode); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "events/op")
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("fast", func(b *testing.B) {
		var ev RawEvent
		run(b, func(line []byte) error { return DecodeEventLine(line, &ev) })
	})
	b.Run("stdlib", func(b *testing.B) {
		run(b, func(line []byte) error {
			var w WireEvent
			return json.Unmarshal(line, &w)
		})
	})
}
