// Command perfbench measures the simulator's own speed: host time, memory
// and allocations per simulated request on four named workloads, checked
// against committed statistics digests on every run. See README.md.
//
//	go build -o perfbench . && ./perfbench --workload fig4_mix_saturated --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics from untraced runs; --trace 1
// prints the per-layer metrics from a traced pass. The last line of
// standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/mem"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed; goldens are checked at the default")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if hw := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); w.workers > hw {
		return fmt.Errorf("%s needs %d workers but the host runs %d threads at once; refusing to report an undersubscribed measurement",
			w.name, w.workers, hw)
	}
	budget := time.Duration(seconds) * time.Second
	var rep report
	if trace == 0 {
		rep = untracedPass(w, seed, budget, os.Stderr)
	} else {
		rep = tracedPass(w, seed, budget, os.Stderr)
	}
	host, err := json.Marshal(hostStamp())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "{\"host\": %s}\n", host)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// newReport starts a report from the checker's accounting, logging each
// distinct failure.
func newReport(c *checker, log io.Writer) report {
	for _, p := range c.problems {
		fmt.Fprintf(log, "perfbench: %s: FAIL %s\n", c.w.name, p)
	}
	return report{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]metric{},
	}
}

// kindsFor lists the run kinds a pass interleaves: the event model and the
// cycle model on the identical stream; the traced pass adds the traced
// event model and, on the sharded rig, the serial schedule.
func kindsFor(w workload, traced bool) []runKind {
	if !traced {
		return []runKind{eventRun, cycleRun}
	}
	kinds := []runKind{tracedRun, eventRun, cycleRun}
	if w.topo == sharded {
		kinds = append(kinds, serialRun)
	}
	return kinds
}

// untracedPass measures the end-to-end metrics.
func untracedPass(w workload, seed int64, budget time.Duration, log io.Writer) report {
	c := newChecker(w, seed)
	if w.topo == sharded {
		// The parallel runs' digests must match the serial schedule's.
		c.judge(runOnce(w, seed, serialRun, nil))
	}
	runs := measure(w, seed, budget, kindsFor(w, false), nil, c)
	ev := runs[eventRun]
	rep := newReport(c, log)
	m := rep.Metrics
	m["req_per_s"] = metric{median(ev, result.reqPerSec), "1/s"}
	m["cycle_req_per_s"] = metric{median(runs[cycleRun], result.reqPerSec), "1/s"}
	m["setup_s"] = metric{median(ev, func(r result) float64 { return r.setup.Seconds() }), "s"}
	m["allocs_per_req"] = metric{median(ev, func(r result) float64 { return ratio(float64(r.mallocs), float64(r.requests)) }), "allocs/req"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	for _, k := range []runKind{eventRun, cycleRun} {
		v := sorted(runs[k], result.reqPerSec)
		q := func(p float64) float64 { return v[int(p*float64(len(v)-1))] }
		fmt.Fprintf(log, "perfbench: %s %s runs, req/s: n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g\n",
			w.name, runKindNames[k], len(v), v[0], q(0.25), median(runs[k], result.reqPerSec), q(0.75), v[len(v)-1])
	}
	return rep
}

// tracedPass measures the per-layer metrics. Traced and untraced event
// runs interleave, so the tracing overhead is measured under the same host
// noise.
func tracedPass(w workload, seed int64, budget time.Duration, log io.Writer) report {
	c := newChecker(w, seed)
	in := &instr{}
	runs := measure(w, seed, budget, kindsFor(w, true), in, c)
	tr, ev, cy := runs[tracedRun], runs[eventRun], runs[cycleRun]
	t0 := tr[0]
	var trReqs, trSteps uint64
	for _, r := range tr {
		trReqs += r.requests
		trSteps += r.steps
	}
	perReq := func(v float64) float64 { return ratio(v, float64(t0.requests)) }
	loopNs := func(r result) float64 { return float64(r.loop.Nanoseconds()) }

	rep := newReport(c, log)
	m := rep.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("sim.events_per_req", perReq(float64(t0.events)), "events/req")
	set("sim.ns_per_event", median(ev, func(r result) float64 { return ratio(loopNs(r), float64(r.events)) }), "ns")
	set("sim.loop_ns_per_req", ratio(float64(in.spans.self[spanStep].Nanoseconds()), float64(trReqs)), "ns")

	set("core.row_hit_rate", t0.rowHit, "ratio")
	set("core.bus_util", t0.busUtil, "ratio")
	set("core.bw_gbs", t0.bwGBs, "GB/s")
	set("core.avg_read_lat_ns", t0.readLatNs, "ns")
	set("core.admit_ratio", in.admitRatio(), "ratio")

	set("trafficgen.next_ns_p50", in.spans.percentile(spanNext, 50), "ns")
	set("trafficgen.next_ns_p99", in.spans.percentile(spanNext, 99), "ns")
	set("trafficgen.next_samples", float64(len(in.spans.samples[spanNext])), "count")
	set("trafficgen.read_lat_ns_p50", t0.readP50, "ns")
	set("trafficgen.read_lat_ns_p99", t0.readP99, "ns")

	set("dram.decode_ns", decodeNs(w, in.addrs), "ns")
	set("xbar.admit_ratio", t0.xbarAdmit, "ratio")

	set("cyclesim.events_per_req", ratio(float64(cy[0].events), float64(cy[0].requests)), "events/req")
	set("cyclesim.ns_per_event", median(cy, func(r result) float64 { return ratio(loopNs(r), float64(r.events)) }), "ns")
	set("speedup_x", ratio(median(cy, loopNs), median(ev, loopNs)), "x")

	set("system.steps_per_kreq", 1000*perReq(float64(t0.steps)), "steps/kreq")
	set("system.step_ns_p50", in.spans.percentile(spanStep, 50), "ns")
	set("system.step_ns_p99", in.spans.percentile(spanStep, 99), "ns")
	set("system.step_samples", float64(len(in.spans.samples[spanStep])), "count")
	workerSpeedup := 0.0
	if se := runs[serialRun]; len(se) > 0 {
		workerSpeedup = ratio(median(se, loopNs), median(ev, loopNs))
	}
	set("system.worker_speedup", workerSpeedup, "x")
	set("mem.flush_pkts_per_step", ratio(float64(in.flush.pkts), float64(trSteps)), "pkts/step")

	set("obs.events_per_req", ratio(float64(in.spans.count[spanProbe]), float64(trReqs)), "events/req")
	set("obs.handle_ns_per_event", ratio(float64(in.spans.total[spanProbe].Nanoseconds()), float64(in.spans.count[spanProbe])), "ns")
	set("obs.trace_bytes_per_req", perReq(float64(t0.traceBytes)), "bytes/req")

	var violations int
	for _, rs := range runs {
		for _, r := range rs {
			violations += r.violations
		}
	}
	set("power.cmds_per_req", perReq(float64(t0.cmds)), "cmds/req")
	set("power.check_ns_per_cmd", median(ev, func(r result) float64 { return ratio(float64(r.check.Nanoseconds()), float64(r.cmds)) }), "ns")
	set("power.violations", float64(violations), "count")

	set("stats.dump_ms", median(ev, func(r result) float64 { return r.dump.Seconds() * 1000 }), "ms")
	var gcs, reqs uint64
	for _, r := range ev {
		gcs += r.gcs
		reqs += r.requests
	}
	set("runtime.gc_per_kreq", 1000*ratio(float64(gcs), float64(reqs)), "gc/kreq")
	set("trace_overhead_pct", 100*(ratio(median(ev, result.reqPerSec), median(tr, result.reqPerSec))-1), "%")
	set("error_rate", ratio(float64(c.failed), float64(c.attempted)), "ratio")

	fmt.Fprintf(log, "perfbench: %s traced pass: %d traced, %d untraced event, %d cycle runs\n", w.name, len(tr), len(ev), len(cy))
	in.spans.summary(log)
	return rep
}

// decodeSink keeps the timed Decode calls from being optimised away.
var decodeSink uint64

// decodeNs times dram.Decoder.Decode over the recorded address stream,
// replayed for at least 50ms.
func decodeNs(w workload, addrs []mem.Addr) float64 {
	dec, err := w.decoder()
	if err != nil || len(addrs) == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, a := range addrs {
			decodeSink += dec.Decode(a).Row
		}
		n += len(addrs)
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(n))
}

// sorted returns f over the runs, ascending.
func sorted(rs []result, f func(result) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	slices.Sort(v)
	return v
}

// median is the median of f over the runs (0 for none).
func median(rs []result, f func(result) float64) float64 {
	v := sorted(rs, f)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not drive).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostStamp identifies the measuring host.
func hostStamp() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
	}
}
