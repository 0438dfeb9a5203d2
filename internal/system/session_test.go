package system

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// sessionRig builds a fresh rig of one topology and opens a session on it,
// returning the session, the rig's statistics and one of its kernels (the
// channel kernel on the sharded rig, so its watchdog runs on a worker).
type sessionRig struct {
	name string
	open func(t *testing.T) (*Session, *stats.Registry, *sim.Kernel)
}

const sessionDeadline = 50 * sim.Millisecond

var sessionRigs = []sessionRig{
	{"traffic", func(t *testing.T) (*Session, *stats.Registry, *sim.Kernel) {
		rig, err := NewTrafficRig(rigConfig(EventBased, false))
		if err != nil {
			t.Fatal(err)
		}
		s, err := rig.NewSession("session-test", sessionDeadline)
		if err != nil {
			t.Fatal(err)
		}
		return s, rig.Reg, rig.K
	}},
	{"multichannel", func(t *testing.T) (*Session, *stats.Registry, *sim.Kernel) {
		rig, err := NewMultiChannelRig(MultiChannelConfig{
			Kind: EventBased, Spec: dram.DDR3_1600_x64(), Mapping: dram.RoRaBaCoCh, Channels: 2,
			Xbar:     xbar.DefaultConfig(),
			Gens:     []trafficgen.Config{{RequestBytes: 64, MaxOutstanding: 16, Count: 400}},
			Patterns: []trafficgen.Pattern{&trafficgen.Random{End: 1 << 24, Align: 64, ReadPercent: 60, Seed: 5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := rig.NewSession("session-test", sessionDeadline)
		if err != nil {
			t.Fatal(err)
		}
		return s, rig.Reg, rig.K
	}},
	{"sharded", func(t *testing.T) (*Session, *stats.Registry, *sim.Kernel) {
		// Workers=2 over front+4 channels: chan0 runs on worker 1.
		rig, err := NewShardedRig(shardedConfig(EventBased, 4, 2, false))
		if err != nil {
			t.Fatal(err)
		}
		s, err := rig.NewSession("session-test", sessionDeadline)
		if err != nil {
			t.Fatal(err)
		}
		return s, rig.Reg, rig.Chans[0]
	}},
}

func dumpJSON(t *testing.T, reg *stats.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A session restored from its completion checkpoint is already done: one
// Step reports completion without advancing the clock or any statistic
// (bus utilisation divides by Now, so one more quantum would skew it).
func TestSessionResumeFromCompletion(t *testing.T) {
	for _, sr := range sessionRigs {
		t.Run(sr.name, func(t *testing.T) {
			s, reg, _ := sr.open(t)
			defer s.Close()
			s.Start()
			for {
				done, err := s.Step()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			want, end := dumpJSON(t, reg), s.Now()
			data, err := s.Manager().Save()
			if err != nil {
				t.Fatal(err)
			}

			r, rreg, _ := sr.open(t)
			defer r.Close()
			if err := r.Manager().Restore(data); err != nil {
				t.Fatal(err)
			}
			done, err := r.Step()
			if !done || err != nil {
				t.Fatalf("first Step after restoring a completed run = (%v, %v), want (true, nil)", done, err)
			}
			if r.Now() != end {
				t.Fatalf("resumed completed run moved from %s to %s", end, r.Now())
			}
			if got := dumpJSON(t, rreg); got != want {
				t.Fatal("resumed completed run changed its statistics")
			}
		})
	}
}

// A watchdog trip in any kernel — the single kernel of a TrafficRig, or a
// channel kernel a sharded worker steps — comes back from Step as an error,
// not a panic.
func TestSessionWatchdogIsError(t *testing.T) {
	for _, sr := range sessionRigs {
		t.Run(sr.name, func(t *testing.T) {
			s, _, k := sr.open(t)
			defer s.Close()
			k.SetWatchdog(sim.Watchdog{MaxEvents: 50})
			s.Start()
			for {
				done, err := s.Step()
				if done {
					t.Fatal("run finished without tripping the watchdog")
				}
				if err != nil {
					var we *sim.WatchdogError
					if !errors.As(err, &we) {
						t.Fatalf("Step error %v is not a *sim.WatchdogError", err)
					}
					return
				}
			}
		})
	}
}

// Step's own bookkeeping — entry check, horizon, the share handoff, the
// barrier section — allocates nothing: steady-state benchmarks take
// hundreds of Steps per run and are gated at a fraction of an allocation per
// request. With no generator started, the kernels hold no events, so any
// allocation is the loop's.
func TestSessionStepZeroAlloc(t *testing.T) {
	for _, sr := range sessionRigs {
		t.Run(sr.name, func(t *testing.T) {
			s, _, _ := sr.open(t)
			defer s.Close()
			step := func() {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(200, step); avg != 0 {
				t.Fatalf("Step allocates %.1f times per call", avg)
			}
		})
	}
}
