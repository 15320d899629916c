//go:build !race

package trace

// Timing contracts of the NDJSON decoder. Race instrumentation distorts
// timings, so this file builds only without -race.

import (
	"encoding/json"
	"testing"
	"time"
)

// TestIngestDecodeSpeedVsStdlib pins the decoder's reason to exist: on the
// BenchmarkIngestDecode corpus, the fast path must decode at least 2x
// faster than encoding/json, timed in one process so host speed cancels.
// Each side takes the fastest of 3 rounds of 5 passes over the corpus.
func TestIngestDecodeSpeedVsStdlib(t *testing.T) {
	const minSpeedup = 2
	body, _ := benchCorpus(2048)
	var ev RawEvent
	fast := func(line []byte) error { return DecodeEventLine(line, &ev) }
	stdlib := func(line []byte) error {
		var w WireEvent
		return json.Unmarshal(line, &w)
	}
	best := func(decode func(line []byte) error) time.Duration {
		var min time.Duration
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			for p := 0; p < 5; p++ {
				if err := forEachLine(body, decode); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); r == 0 || d < min {
				min = d
			}
		}
		return min
	}
	f, s := best(fast), best(stdlib)
	speedup := float64(s) / float64(f)
	t.Logf("decode: fast %v, stdlib %v, %.1fx", f, s, speedup)
	if speedup < minSpeedup {
		t.Fatalf("fast decoder only %.1fx faster than encoding/json, want >= %dx", speedup, minSpeedup)
	}
}
