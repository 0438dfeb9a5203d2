package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/system"
)

// runKind is one way of running a workload's stream.
type runKind int

const (
	eventRun  runKind = iota // event model, untraced
	cycleRun                 // cycle model, untraced, identical stream
	tracedRun                // event model, instrumented
	serialRun                // event model, untraced, one worker (sharded only)
)

var runKindNames = [...]string{"event", "cycle", "traced", "serial"}

// model names the controller model a run kind simulates; runs of one model
// must produce identical statistics.
func (k runKind) model() string {
	if k == cycleRun {
		return "cycle"
	}
	return "event"
}

// result is one fixed-size run of a workload.
type result struct {
	kind     runKind
	digest   string
	requests uint64
	err      error
	// Host time: construction up to the first event, the simulation loop
	// (with CheckTiming for observed workloads), and the statistics dump.
	setup, loop, dump time.Duration
	// check is the CheckTiming share of loop.
	check time.Duration
	// Heap allocations and collections during construction and the loop.
	mallocs, gcs uint64
	// Deterministic counts and simulated-time figures.
	events, steps    uint64
	cmds, violations int
	traceBytes       int
	rowHit, busUtil  float64
	bwGBs, readLatNs float64
	xbarAdmit        float64
	readP50, readP99 float64
}

// reqPerSec is the run's simulated requests per host second.
func (r result) reqPerSec() float64 { return ratio(float64(r.requests), r.loop.Seconds()) }

// runOnce builds, runs, checks and dumps one fixed-size run.
func runOnce(w workload, seed int64, kind runKind, in *instr) result {
	res := result{kind: kind, requests: w.totalRequests()}
	model, workers := system.EventBased, w.workers
	if kind == cycleRun {
		model = system.CycleBased
	}
	if kind == serialRun {
		workers = 1
	}
	if kind != tracedRun {
		in = nil
	}

	// Settle the collector so each run starts from the same heap.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := buildRig(w, seed, model, workers, in)
	if err != nil {
		res.err = err
		return res
	}
	defer r.sess.Close()
	r.sess.Start()
	t1 := time.Now()
	for {
		if in != nil {
			in.spans.begin()
		}
		done, err := r.sess.Step()
		if r.tracer != nil {
			res.traceBytes += len(r.tracer.TakePending())
		}
		if in != nil {
			in.spans.end(spanStep)
		}
		res.steps++
		if err != nil {
			res.err = err
			break
		}
		if done {
			break
		}
	}
	if r.cmds != nil {
		tc := time.Now()
		res.violations = len(power.CheckTiming(w.spec, r.cmds.cmds))
		res.check = time.Since(tc)
		res.cmds = len(r.cmds.cmds)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	res.setup, res.loop = t1.Sub(t0), t2.Sub(t1)
	res.mallocs, res.gcs = m1.Mallocs-m0.Mallocs, uint64(m1.NumGC-m0.NumGC)

	var buf bytes.Buffer
	td := time.Now()
	if err := r.reg.DumpJSON(&buf); err != nil && res.err == nil {
		res.err = err
	}
	res.dump = time.Since(td)
	if w.observed {
		fmt.Fprintf(&buf, "commands %d\ntrace bytes %d\n", res.cmds, res.traceBytes)
	}
	sum := sha256.Sum256(buf.Bytes())
	res.digest = hex.EncodeToString(sum[:8])

	for _, k := range r.kernels {
		res.events += k.EventsExecuted()
	}
	for _, c := range r.ctrls {
		res.rowHit += c.RowHitRate() / float64(len(r.ctrls))
		res.busUtil += c.BusUtilisation() / float64(len(r.ctrls))
		res.readLatNs += c.AvgReadLatencyNs() / float64(len(r.ctrls))
		res.bwGBs += c.Bandwidth() / 1e9
	}
	routed, blocked := scalar(r.reg, "sys.xbar.reqRouted"), scalar(r.reg, "sys.xbar.blockedReqs")
	res.xbarAdmit = ratio(routed, routed+blocked)
	res.readP50, res.readP99 = readLatency(r, 50), readLatency(r, 99)
	return res
}

func scalar(reg *stats.Registry, name string) float64 {
	if s, ok := reg.Get(name).(*stats.Scalar); ok {
		return s.Value()
	}
	return 0
}

// readLatency is the p-th percentile of the generators' read latency
// histograms merged, interpolated within a bucket as
// stats.Histogram.Percentile does. All generators share one histogram shape.
func readLatency(r *rig, p float64) float64 {
	var count uint64
	var buckets []uint64
	for _, g := range r.gens {
		h := g.ReadLatency()
		count += h.Count()
		for i, c := range h.Buckets() {
			if i >= len(buckets) {
				buckets = append(buckets, 0)
			}
			buckets[i] += c
		}
	}
	if count == 0 {
		return 0
	}
	h := r.gens[0].ReadLatency()
	target := p / 100 * float64(count)
	seen := 0.0
	for i, c := range buckets {
		if c > 0 && seen+float64(c) >= target {
			lo, hi := h.BucketBounds(i)
			return lo + (target-seen)/float64(c)*(hi-lo)
		}
		seen += float64(c)
	}
	_, hi := h.BucketBounds(len(buckets) - 1)
	return hi
}

// checker applies every correctness check to each run and keeps the
// request accounting. A failed run still contributes its timing samples.
type checker struct {
	w                 workload
	seed              int64
	ref               map[string]string // first digest seen per model
	attempted, failed uint64
	problems          []string
}

func newChecker(w workload, seed int64) *checker {
	return &checker{w: w, seed: seed, ref: map[string]string{}}
}

func (c *checker) judge(r result) {
	c.attempted += r.requests
	var bad string
	key := goldenKey(c.w, r.kind.model())
	switch {
	case r.err != nil:
		bad = r.err.Error()
	case r.violations > 0:
		bad = fmt.Sprintf("%d power.CheckTiming violations", r.violations)
	case c.seed == defaultSeed && goldens[key] == "":
		bad = fmt.Sprintf("no golden digest for %s (got %s)", key, r.digest)
	case c.seed == defaultSeed && goldens[key] != r.digest:
		bad = fmt.Sprintf("digest %s, golden %s is %s", r.digest, key, goldens[key])
	case c.ref[r.kind.model()] != "" && c.ref[r.kind.model()] != r.digest:
		bad = fmt.Sprintf("digest %s differs from the first %s run's %s", r.digest, r.kind.model(), c.ref[r.kind.model()])
	}
	if c.ref[r.kind.model()] == "" && r.err == nil {
		c.ref[r.kind.model()] = r.digest
	}
	if bad != "" {
		c.failed += r.requests
		msg := fmt.Sprintf("%s run: %s", runKindNames[r.kind], bad)
		if !slices.Contains(c.problems, msg) {
			c.problems = append(c.problems, msg)
		}
	}
}

// goldenKey names a committed digest: workload, model and run size.
func goldenKey(w workload, model string) string {
	return fmt.Sprintf("%s/%s/%d", w.name, model, w.requests)
}

// minRuns is how many runs of each kind a pass makes even when that
// overruns its budget.
const minRuns = 3

// measure runs the kinds until the budget is spent, always picking the kind
// that has had the least host time so far: every kind gets an equal share
// of the budget, and the kinds interleave, so each sees the same host
// noise.
func measure(w workload, seed int64, budget time.Duration, kinds []runKind, in *instr, c *checker) map[runKind][]result {
	out := map[runKind][]result{}
	spent := map[runKind]time.Duration{}
	deadline := time.Now().Add(budget)
	for {
		next, short := kinds[0], false
		for _, k := range kinds {
			if spent[k] < spent[next] {
				next = k
			}
			short = short || len(out[k]) < minRuns
		}
		if !short && !time.Now().Before(deadline) {
			return out
		}
		start := time.Now()
		r := runOnce(w, seed, next, in)
		spent[next] += time.Since(start)
		c.judge(r)
		out[next] = append(out[next], r)
	}
}
