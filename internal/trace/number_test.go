package trace

import (
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// checkFloatToken parses tok as a float field and requires the result to
// be bit-identical to strconv.ParseFloat's, with the same accept/reject
// verdict (strconv's range error is encoding/json's reject).
func checkFloatToken(t *testing.T, tok string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(tok, 64)
	got, next, err := parseJSONFloat([]byte(tok), 0)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: verdict mismatch: got err=%v, strconv err=%v", tok, err, wantErr)
	}
	if err != nil {
		return
	}
	if next != len(tok) {
		t.Fatalf("%q: scanned %d of %d bytes", tok, next, len(tok))
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: got %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestParseJSONFloatMatchesStrconv checks the one-pass parser bit for bit
// against strconv on random float64 bit patterns in three formats: the
// shortest round-trip form the encoder writes, a fixed 17 significant
// digits, and plain decimal (up to ~330 digits, long zero runs included).
// Under -race, which adds nothing to this one-goroutine test but slows it
// about tenfold, it checks 32x fewer patterns.
func TestParseJSONFloatMatchesStrconv(t *testing.T) {
	n := 1 << 20
	if raceEnabled {
		n = 1 << 15
	}
	rng := xrand.New(20)
	var buf []byte
	for k := 0; k < n; k++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, f := range [...]struct {
			fmt  byte
			prec int
		}{{'g', -1}, {'e', 16}, {'f', -1}} {
			buf = strconv.AppendFloat(buf[:0], v, f.fmt, f.prec, 64)
			checkFloatToken(t, string(buf))
		}
	}
}

// TestParseJSONFloatEdges covers the tokens where the fast conversion must
// hand over to strconv or agree with it at a boundary: the subnormal
// range, the overflow edge, halfway ties, mantissas just past 19 digits,
// and long zero runs on either side of the point. Each token is also
// checked inside an event line against encoding/json.
func TestParseJSONFloatEdges(t *testing.T) {
	zeros := strings.Repeat("0", 400)
	toks := []string{
		"5e-324", "-5e-324", "4.9406564584124654e-324",
		"2.4703282292062327e-324", "2.4703282292062328e-324", // subnormal halfway
		"2.2250738585072011e-308", "2.2250738585072014e-308", // largest subnormal, smallest normal
		"1.7976931348623157e308", "-1.7976931348623157e308",
		"1.7976931348623158e308", "1.7976931348623159e308",
		"1e308", "1e309", "-1e309", "1e-400", "0e999999999",
		"9007199254740993", "9007199254740995", "9007199254740993.0000000000000001", // ties to even
		"1234567890123456789", "12345678901234567890", "9999999999999999999",
		"99999999999999999999", "18446744073709551615", "18446744073709551616",
		"0.1234567890123456789", "0.12345678901234567891", "1.00000000000000000001",
		"123456789012345678901234567890e-30",
		"0." + zeros + "1", "1" + zeros, "1" + zeros + "e-400", "0." + zeros + "1e400",
		"1" + zeros + ".0", "0.0" + zeros, "-0", "-0.0", "0", "1E2", "1e+2", "1E-2",
	}
	for _, tok := range toks {
		checkFloatToken(t, tok)
		assertDecodeAgrees(t, []byte(`{"arrival":`+tok+`,"state":1}`))
	}
}

// TestParseJSONIntEdges pins the int fields' range and grammar edges
// against encoding/json.
func TestParseJSONIntEdges(t *testing.T) {
	toks := []string{
		"0", "-0", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809",
		"9999999999999999999", "10000000000000000000", "18446744073709551616",
		"100000000000000000000000000000", "1e2", "1E2", "1.0", "-", "00", "-01",
	}
	for _, tok := range toks {
		assertDecodeAgrees(t, []byte(`{"state":`+tok+`}`))
		assertDecodeAgrees(t, []byte(`{"queue":`+tok+`,"arrival":1}`))
	}
}

// TestPow10TableMatchesBig regenerates the Eisel–Lemire powers-of-ten
// table with math/big and compares it entry by entry with the static
// literal: each entry is 10^e scaled by a power of two to exactly 128
// bits, rounded down.
func TestPow10TableMatchesBig(t *testing.T) {
	if got, want := len(pow10Table), pow10MaxExp10-pow10MinExp10+1; got != want {
		t.Fatalf("table has %d entries, want %d", got, want)
	}
	ten := big.NewInt(10)
	for e := pow10MinExp10; e <= pow10MaxExp10; e++ {
		var m big.Int
		if e >= 0 {
			m.Exp(ten, big.NewInt(int64(e)), nil)
			if bl := m.BitLen(); bl > 128 {
				m.Rsh(&m, uint(bl-128))
			} else {
				m.Lsh(&m, uint(128-bl))
			}
		} else {
			var d big.Int
			d.Exp(ten, big.NewInt(int64(-e)), nil)
			m.Lsh(big.NewInt(1), uint(127+d.BitLen()))
			m.Quo(&m, &d)
		}
		var hi big.Int
		hi.Rsh(&m, 64)
		lo := m.Uint64() // low 64 bits
		got := pow10Table[e-pow10MinExp10]
		if got[0] != lo || got[1] != hi.Uint64() {
			t.Fatalf("1e%d: table {%#016x, %#016x}, math/big {%#016x, %#016x}",
				e, got[0], got[1], lo, hi.Uint64())
		}
	}
}

// BenchmarkParseJSONFloat measures one float field's parse against
// strconv.ParseFloat, on a simulator-like 17-digit time and on a short
// exact one.
func BenchmarkParseJSONFloat(b *testing.B) {
	for _, tok := range []string{"1234.5678901234567", "0.25"} {
		line := []byte(tok)
		b.Run("fast/"+tok, func(b *testing.B) {
			for b.Loop() {
				if _, _, err := parseJSONFloat(line, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("strconv/"+tok, func(b *testing.B) {
			for b.Loop() {
				if _, err := strconv.ParseFloat(bytesToString(line), 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
