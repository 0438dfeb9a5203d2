package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// testRequests is the per-generator run size of the short runs; goldens
// holds their digests too.
const testRequests = 500

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestShortRuns runs every workload at a tiny size through both passes. It
// checks that each pass prints exactly its metrics with their units, that
// every run matches its golden digest, and that traced and untraced runs
// agree.
func TestShortRuns(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		w.requests = testRequests
		t.Run(w.name, func(t *testing.T) {
			if w.workers > min(runtime.GOMAXPROCS(0), runtime.NumCPU()) {
				t.Skipf("needs %d hardware threads", w.workers)
			}
			un := untracedPass(w, defaultSeed, time.Millisecond, io.Discard)
			tr := tracedPass(w, defaultSeed, time.Millisecond, io.Discard)
			for _, pass := range []struct {
				name string
				rep  report
				want []metricSpec
			}{{"untraced", un, c.EndToEnd}, {"traced", tr, c.PerLayer}} {
				if !pass.rep.Correct || pass.rep.Failed != 0 || pass.rep.Attempted == 0 {
					t.Errorf("%s pass: correct=%v attempted=%d failed=%d", pass.name, pass.rep.Correct, pass.rep.Attempted, pass.rep.Failed)
				}
				if len(pass.rep.Metrics) != len(pass.want) {
					t.Errorf("%s pass prints %d metrics, BENCHMARK.json lists %d", pass.name, len(pass.rep.Metrics), len(pass.want))
				}
				for _, m := range pass.want {
					got, ok := pass.rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s pass: metric %s = %+v, want unit %q", pass.name, m.Name, got, m.Unit)
					}
				}
			}

			in := &instr{}
			ev, traced := runOnce(w, defaultSeed, eventRun, nil), runOnce(w, defaultSeed, tracedRun, in)
			if ev.err != nil || traced.err != nil {
				t.Fatalf("run errors: untraced %v, traced %v", ev.err, traced.err)
			}
			if ev.digest != traced.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, ev.digest)
			}
			if g := goldens[goldenKey(w, "event")]; ev.digest != g {
				t.Errorf("digest %s, golden %s", ev.digest, g)
			}
			if in.spans.count[spanStep] == 0 || in.spans.count[spanNext] != w.totalRequests() {
				t.Errorf("traced run recorded %d steps and %d Next spans for %d requests",
					in.spans.count[spanStep], in.spans.count[spanNext], w.totalRequests())
			}
		})
	}
}

// TestSeedMovesInputs checks that the seed argument reaches every
// workload's address stream, so a held-out seed is a different input.
func TestSeedMovesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.patterns(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.patterns(defaultSeed + 1)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			for n := 0; n < 64; n++ {
				aa, ar := a[i].Next()
				ba, br := b[i].Next()
				if aa != ba || ar != br {
					same = false
				}
			}
		}
		if same {
			t.Errorf("%s: seeds %d and %d give the same streams", w.name, defaultSeed, defaultSeed+1)
		}
	}
}
