package obs

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// appendTS must spell every tick exactly as fmt's "%d.%06d" of quotient
// and remainder did, including the odd-looking bytes of negative ticks
// (a negative duration renders as "-1.-500000").
func TestAppendTSMatchesFmt(t *testing.T) {
	ticks := []sim.Tick{
		0, 1, 9, 10, 999_999, 1_000_000, 1_000_001, 1_234_567, 99_999_999_999,
		-1, -9, -10, -99_999, -100_000, -500_000, -999_999, -1_000_000, -1_500_000, -1_000_042,
	}
	for e, v := sim.Tick(1), sim.Tick(7); e < 1<<60; e, v = e*10, v*10+7 {
		ticks = append(ticks, e, e-1, v, -e, -(e - 1), -v)
	}
	for _, tk := range ticks {
		want := fmt.Sprintf("%d.%06d", int64(tk)/traceTimeDiv, int64(tk)%traceTimeDiv)
		if got := string(appendTS(nil, tk)); got != want {
			t.Errorf("appendTS(%d) = %q, want %q", tk, got, want)
		}
	}
}

// appendQuote's fast path must not change a byte of strconv.Quote's output.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"", "mc", "bank r0b3", "PD(act)", "read 0x1f40", "~ !#$%&'()*+,-./:;<=>?@[]^_`{|}",
		`quote"d`, `back\slash`, "tab\there", "nl\n", "del\x7f", "nul\x00", "µs", "bad\xffutf8",
	} {
		if got, want := string(appendQuote(nil, s)), strconv.Quote(s); got != want {
			t.Errorf("appendQuote(%q) = %s, want %s", s, got, want)
		}
	}
}
