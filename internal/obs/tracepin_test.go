// Trace pin: deterministic scenarios that between them drive every branch
// of the tracer, with the SHA-256 and length of each trace committed below.
// Any change to the tracer's rendering — even one that keeps the file valid
// JSON — changes a digest, so a rewrite of the line formatting has to
// reproduce today's bytes exactly.
package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// runRigTraced drives a single-controller rig with a tracer attached,
// draining the tracer every few microseconds (so the bytes also pin that
// drain timing does not matter), and returns the concatenated trace lines.
func runRigTraced(t *testing.T, rc system.RigConfig) []byte {
	t.Helper()
	tracer := obs.NewTracer(0)
	hub := obs.NewHub()
	hub.Attach(tracer)
	rc.Probes = hub
	rig, err := system.NewTrafficRig(rc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rig.Gen.Start()
	for rig.K.Now() < sim.Second {
		rig.K.RunUntil(rig.K.Now() + 5*sim.Microsecond)
		out.Write(tracer.TakePending())
		if rig.Gen.Done() {
			if !rig.Ctrl.Quiescent() {
				if d, ok := rig.Ctrl.(system.Drainer); ok {
					d.Drain()
				}
				continue
			}
			break
		}
	}
	if !rig.Gen.Done() {
		t.Fatal("traced run did not complete")
	}
	out.Write(tracer.TakePending())
	return out.Bytes()
}

// tracePinMarkers are the byte patterns that show each tracer branch fired.
var tracePinMarkers = map[string]*regexp.Regexp{
	"process":    regexp.MustCompile(`"name":"process_name","ph":"M"`),
	"thread":     regexp.MustCompile(`"name":"thread_name","ph":"M"`),
	"pktBegin":   regexp.MustCompile(`"cat":"pkt","ph":"b"`),
	"pktEnd":     regexp.MustCompile(`"cat":"pkt","ph":"e"`),
	"firstCmd":   regexp.MustCompile(`"name":"firstCmd","cat":"pkt","ph":"n"`),
	"admit":      regexp.MustCompile(`"cat":"queue","ph":"C"`),
	"refuse":     regexp.MustCompile(`"name":"refuse\.[a-z]+","cat":"queue","ph":"i"`),
	"ACT":        regexp.MustCompile(`"name":"ACT","cat":"cmd"`),
	"PRE":        regexp.MustCompile(`"name":"PRE","cat":"cmd"`),
	"RD":         regexp.MustCompile(`"name":"RD","cat":"burst"`),
	"WR":         regexp.MustCompile(`"name":"WR","cat":"burst"`),
	"refAll":     regexp.MustCompile(`"name":"REF","cat":"refresh".*"args":\{"bank":-1\}`),
	"refBank":    regexp.MustCompile(`"name":"REF","cat":"refresh".*"args":\{"bank":[0-9]`),
	"drain":      regexp.MustCompile(`"name":"writeDrain","cat":"drain","ph":"X"`),
	"pdPre":      regexp.MustCompile(`"name":"PD\(pre\)","cat":"power","ph":"X"`),
	"pdAct":      regexp.MustCompile(`"name":"PD\(act\)","cat":"power","ph":"X"`),
	"selfRef":    regexp.MustCompile(`"name":"SR","cat":"power","ph":"X"`),
	"flush":      regexp.MustCompile(`"name":"flush\.link[0-9]+","cat":"quantum","ph":"i"`),
	"xbarSource": regexp.MustCompile(`"args":\{"name":"xbar"\}`),
}

// tracePin is one pinned scenario: the trace it must produce (by SHA-256
// and length) and the branches it must exercise.
type tracePin struct {
	name    string
	run     func(t *testing.T) []byte
	sha256  string
	length  int
	markers []string
}

func tracePins() []tracePin {
	mixed := func(seed int64) trafficgen.Pattern {
		return &trafficgen.Random{Start: 0, End: 1 << 26, Align: 64, ReadPercent: 50, Seed: seed}
	}
	return []tracePin{{
		// Two ranks, open page, requests spaced past both idle thresholds:
		// every gap powers the ranks down and then into self-refresh.
		name: "event_lowpower_2rank",
		run: func(t *testing.T) []byte {
			return runRigTraced(t, system.RigConfig{
				Kind: system.EventBased, Spec: dram.DDR3_1600_x64_2R(), Mapping: dram.RoRaBaCoCh,
				Gen: trafficgen.Config{
					RequestBytes: 64, MaxOutstanding: 4, Count: 60,
					InterTransaction: 1500 * sim.Nanosecond,
				},
				Pattern: mixed(5),
				TuneEvent: func(c *core.Config) {
					c.PowerDownIdle = 50 * sim.Nanosecond
					c.SelfRefreshIdle = sim.Microsecond
				},
			})
		},
		sha256:  "87f597128e1cd92639bc86eafce044ea2bb1443e6c1d8d0d999374ced747ecfc",
		length:  49332,
		markers: []string{"pdPre", "pdAct", "selfRef", "firstCmd", "pktEnd"},
	}, {
		// Saturating mixed traffic into tiny queues: write drain episodes,
		// refusals on both queues, and long enough to refresh.
		name: "event_mixed_small_queues",
		run: func(t *testing.T) []byte {
			return runRigTraced(t, system.RigConfig{
				Kind: system.EventBased, Spec: dram.DDR3_1600_x64(), Mapping: dram.RoRaBaCoCh,
				Gen:     trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 3000},
				Pattern: mixed(9),
				TuneEvent: func(c *core.Config) {
					c.ReadBufferSize = 4
					c.WriteBufferSize = 8
				},
			})
		},
		sha256:  "39a2acec239a33b3acfc5d24defe7edb802cc0dd1c12c950972f0165ce1699d1",
		length:  2205274,
		markers: []string{"process", "thread", "pktBegin", "pktEnd", "firstCmd", "admit", "refuse", "ACT", "PRE", "RD", "WR", "refAll", "drain"},
	}, {
		// DDR5 same-bank refresh: per-bank RefreshStart windows.
		name: "event_ddr5_refsb",
		run: func(t *testing.T) []byte {
			return runRigTraced(t, system.RigConfig{
				Kind: system.EventBased, Spec: dram.DDR5_4800_x64(), Mapping: dram.RoRaBaCoCh,
				Gen:     trafficgen.Config{RequestBytes: 64, MaxOutstanding: 16, Count: 3000},
				Pattern: mixed(13),
			})
		},
		sha256:  "246bb7d41ce4e935ce0c04432e0ae20a1771518a56be9200dc74df441561c45c",
		length:  1919124,
		markers: []string{"refBank", "RD", "WR"},
	}, {
		// Two channels on the sharded rig: a frontend tracer sees the
		// crossbar's packet spans and the barrier's quantum flushes.
		name: "sharded_2ch",
		run: func(t *testing.T) []byte {
			path := filepath.Join(t.TempDir(), "sharded.json")
			runShardedTraced(t, path, 2, 1)
			return readFile(t, path)
		},
		sha256:  "18b815ed566aa0e8d30e87f7362e3b7a06d4954cc84c11b81fc38f13fc5039fb",
		length:  847539,
		markers: []string{"flush", "xbarSource", "pktBegin", "pktEnd", "firstCmd"},
	}, {
		// The cycle-based baseline emits the same vocabulary.
		name: "cycle_mixed",
		run: func(t *testing.T) []byte {
			return runRigTraced(t, system.RigConfig{
				Kind: system.CycleBased, Spec: dram.DDR3_1600_x64(), Mapping: dram.RoRaBaCoCh,
				Gen:     trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 2000},
				Pattern: mixed(17),
			})
		},
		sha256:  "68be7c470499bff5285982f9690d83be52c4fd75046c4c95cf13a5456a7f67e9",
		length:  1545306,
		markers: []string{"pktBegin", "pktEnd", "firstCmd", "admit", "refuse", "ACT", "PRE", "RD", "WR", "refAll"},
	}}
}

// TestTraceBytesPinned checks every pinned scenario's trace against its
// committed digest and that each scenario exercised the branches it exists
// to cover; together the scenarios cover every tracer branch.
func TestTraceBytesPinned(t *testing.T) {
	covered := make(map[string]bool)
	for _, pin := range tracePins() {
		t.Run(pin.name, func(t *testing.T) {
			b := pin.run(t)
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:])
			for name, re := range tracePinMarkers {
				if re.Match(b) {
					covered[name] = true
				}
			}
			for _, m := range pin.markers {
				if !tracePinMarkers[m].Match(b) {
					t.Errorf("branch %s never fired", m)
				}
			}
			if got != pin.sha256 || len(b) != pin.length {
				t.Errorf("trace changed: sha256 %s, %d bytes; pinned %s, %d bytes",
					got, len(b), pin.sha256, pin.length)
			}
		})
	}
	for name := range tracePinMarkers {
		if !covered[name] {
			t.Errorf("no scenario exercises tracer branch %s", name)
		}
	}
}
