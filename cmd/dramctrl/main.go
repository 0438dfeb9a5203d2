// Command dramctrl is the general-purpose runner: it assembles a traffic
// source (synthetic pattern or trace file) over one DRAM controller (event-
// or cycle-based) with every policy knob exposed as a flag, runs to
// completion, and reports bandwidth, latency, power and (optionally) the
// full statistics dump — the repository's equivalent of driving a gem5
// memory configuration from the command line.
//
// Runs are supervised: -checkpoint enables periodic, checksummed snapshots
// (-checkpoint-every / -checkpoint-wall), -resume continues a run from its
// last checkpoint bit-identically, and SIGINT/SIGTERM drain the current
// quantum, write a final checkpoint, flush statistics, and exit 130. A
// crashed segment (watchdog trip, injected panic) dumps a postmortem
// checkpoint and is retried from the last good one up to -max-retries times.
//
// Observability: -trace writes a Chrome/Perfetto trace of the run (packet
// lifecycles, per-bank command spans, refresh windows); -obs-http serves
// live statistics snapshots and pprof; -obs-sample periodically samples
// controller-internal state into the statistics registry. The trace
// composes with checkpointing: a resumed run appends to the same file and
// reproduces the uninterrupted trace byte for byte.
//
// Examples:
//
//	dramctrl -spec DDR3-1600-x64 -pattern linear -requests 50000
//	dramctrl -spec WideIO-200-x128 -pattern dramaware -stride 4 -banks 4 -reads 67
//	dramctrl -model cycle -pattern random -reads 50 -stats
//	dramctrl -trace-in capture.txt
//	dramctrl -pattern random -trace out.json     # load out.json in ui.perfetto.dev
//	dramctrl -requests 100000 -obs-http localhost:6060
//	dramctrl -requests 2000000 -checkpoint run.ckpt -checkpoint-every 1000000
//	dramctrl -requests 2000000 -checkpoint run.ckpt -resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/experiments/cliconfig"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/supervisor"
	"repro/internal/trafficgen"
)

// errInterrupted marks a graceful signal-driven stop; main exits 130 (the
// conventional SIGINT code) after the partial results have been flushed.
var errInterrupted = errors.New("interrupted")

func main() {
	var (
		spec = cliconfig.AddSpec(flag.CommandLine, "DDR3-1600-x64")
		list = flag.Bool("list", false, "list available memory specs and exit")
		pol  = cliconfig.AddPolicy(flag.CommandLine, cliconfig.PolicyFlags{Model: true, Sched: true})
		traf = cliconfig.AddTraffic(flag.CommandLine, 10000)

		powerDown   = flag.Int64("powerdown", 0, "power-down idle threshold in ns (0 = off, event model only)")
		selfRefresh = flag.Int64("selfrefresh", 0, "self-refresh idle threshold in ns (0 = off, event model only; must exceed -powerdown when both are set)")
		dumpStats   = flag.Bool("stats", false, "dump the full statistics registry")
		jsonStats   = flag.String("json", "", "write the statistics registry as JSON to this file")
		traceIn     = flag.String("trace-in", "", "replay this trace file instead of a synthetic pattern")
		traceOut    = flag.String("trace-out", "", "capture the request stream to this trace file")
		interval    = flag.Int64("interval", 0, "print a bandwidth sample every N ns of simulated time (0 = off)")

		faultSeed   = flag.Uint64("fault-seed", 42, "fault injector seed (event model)")
		berCorr     = flag.Float64("ber-correctable", 0, "correctable errors per read burst (0-1, event model)")
		berUncorr   = flag.Float64("ber-uncorrectable", 0, "uncorrectable errors per read burst (0-1, event model)")
		berTrans    = flag.Float64("ber-transient", 0, "transient whole-burst failures per read burst (0-1, event model)")
		eccLatency  = flag.Int64("ecc-latency", 10, "ECC correction latency in ns")
		retryLimit  = flag.Int("retry-limit", 4, "replay attempts before a faulty row is retired")
		maxEvents   = flag.Uint64("max-events", 0, "watchdog: abort after this many events (0 = off)")
		maxSameTick = flag.Uint64("max-same-tick", 1_000_000, "watchdog: abort after this many events at one tick (0 = off)")

		shard = cliconfig.AddShard(flag.CommandLine)
		ckpt  = cliconfig.AddCheckpoint(flag.CommandLine)
		obsF  = cliconfig.AddObs(flag.CommandLine)
	)
	flag.Parse()

	if shard.Sharded() {
		err := runSharded(shardedFlags{
			spec: spec, pol: pol, traf: traf, shard: shard,
			powerDownNs: *powerDown, selfRefreshNs: *selfRefresh,
			dumpStats: *dumpStats, jsonStats: *jsonStats,
			traceIn: *traceIn, traceOut: *traceOut,
			faultsOn: *berCorr != 0 || *berUncorr != 0 || *berTrans != 0,
			sup:      ckpt, obs: obsF,
		})
		exit(err)
		return
	}

	if *list {
		cliconfig.ListSpecs(os.Stdout)
		return
	}
	err := run(cfgFromFlags{
		spec: spec, pol: pol, traf: traf,
		powerDownNs: *powerDown, selfRefreshNs: *selfRefresh,
		dumpStats: *dumpStats, jsonStats: *jsonStats,
		traceIn: *traceIn, traceOut: *traceOut,
		intervalNs: *interval,
		faults: faults.Config{
			Seed:                  *faultSeed,
			CorrectablePerBurst:   *berCorr,
			UncorrectablePerBurst: *berUncorr,
			TransientPerBurst:     *berTrans,
		},
		eccLatencyNs: *eccLatency, retryLimit: *retryLimit,
		watchdog: sim.Watchdog{MaxEvents: *maxEvents, MaxSameTick: *maxSameTick},
		sup:      ckpt, obs: obsF,
	})
	exit(err)
}

// exit maps a run error to the process exit code: 0 clean, 130 after a
// graceful interrupt (partial results were flushed), 1 on failure.
func exit(err error) {
	switch {
	case err == nil:
	case errors.Is(err, errInterrupted):
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "dramctrl:", err)
		os.Exit(1)
	}
}

type cfgFromFlags struct {
	spec *cliconfig.Spec
	pol  *cliconfig.Policy
	traf *cliconfig.Traffic

	powerDownNs   int64
	selfRefreshNs int64

	dumpStats    bool
	jsonStats    string
	traceIn      string
	traceOut     string
	intervalNs   int64
	faults       faults.Config
	eccLatencyNs int64
	retryLimit   int
	watchdog     sim.Watchdog
	sup          *cliconfig.Checkpoint
	obs          *cliconfig.Obs
}

// fingerprint canonicalizes every knob that shapes the simulated schedule,
// so a checkpoint is never resumed under a different configuration. The
// observability flags are deliberately absent: probes only observe, so a
// traced resume of an untraced segment schedule is still the same schedule.
func (f cfgFromFlags) fingerprint(spec dram.Spec) string {
	t := f.traf
	return fmt.Sprintf("dramctrl spec=%s standard=%s model=%s mapping=%s page=%s sched=%s pattern=%s "+
		"reads=%d requests=%d bytes=%d outstanding=%d itt=%d stride=%d banks=%d burston=%d burstoff=%d seed=%d "+
		"powerdown=%d selfrefresh=%d faults=%d/%g/%g/%g ecc=%d retry=%d",
		spec.Name, spec.Standard(), f.pol.Model, f.pol.Mapping, f.pol.Page, f.pol.Sched, t.Pattern,
		t.Reads, t.Requests, t.Bytes, t.Outstanding, t.ITTNs, t.Stride, t.Banks, t.BurstOn, t.BurstOffNs, t.Seed,
		f.powerDownNs, f.selfRefreshNs,
		f.faults.Seed, f.faults.CorrectablePerBurst, f.faults.UncorrectablePerBurst, f.faults.TransientPerBurst,
		f.eccLatencyNs, f.retryLimit)
}

// controller abstracts over the two models for this tool.
type controller interface {
	Port() *mem.ResponsePort
	Quiescent() bool
	Bandwidth() float64
	BusUtilisation() float64
	RowHitRate() float64
	AvgReadLatencyNs() float64
	PowerStats() power.Activity
	ObsSample() obs.Sample
}

// singleRig is one fully wired single-channel simulation; it is the
// supervisor session for the single-channel path.
type singleRig struct {
	f        cfgFromFlags
	spec     dram.Spec
	mapping  dram.Mapping
	k        *sim.Kernel
	reg      *stats.Registry
	ctrl     controller
	drain    func()
	gen      *trafficgen.Generator // nil when replaying a trace
	done     func() bool
	start    func()
	startErr error
	mon      *trafficgen.Monitor
	series   *stats.Series
	tw       *obs.TraceWriter
	sink     *obs.TraceSink
	sampler  *obs.SamplerProbe
	live     *obs.LiveServer
	mgr      *checkpoint.Manager
	deadline sim.Tick
}

// Manager implements supervisor.Session.
func (r *singleRig) Manager() *checkpoint.Manager { return r.mgr }

// Now implements supervisor.Session.
func (r *singleRig) Now() sim.Tick { return r.k.Now() }

// Start implements supervisor.Session (fresh runs only; a restore carries
// the source's event state, and an already-started trace file).
func (r *singleRig) Start() { r.start() }

// Step implements supervisor.Session: one quantum, with watchdog trips
// surfacing as diagnosable errors carrying the pending-event dump. Trace
// lines buffered during the quantum flush to the file here, keeping memory
// bounded regardless of run length.
func (r *singleRig) Step() (bool, error) {
	if r.startErr != nil {
		return false, r.startErr
	}
	// A run restored from its completion checkpoint must not step past its
	// recorded end (see system.Session.Step).
	if r.done() && r.ctrl.Quiescent() {
		return true, nil
	}
	if _, err := r.k.RunUntilErr(r.k.Now() + 10*sim.Microsecond); err != nil {
		return false, err
	}
	if r.sink != nil {
		if err := r.sink.Flush(); err != nil {
			return false, err
		}
	}
	if r.done() {
		if !r.ctrl.Quiescent() {
			r.drain()
			return false, nil
		}
		return true, nil
	}
	if r.k.Now() >= r.deadline {
		return false, fmt.Errorf("simulation did not complete within %s", r.deadline)
	}
	return false, nil
}

// Close implements supervisor.Session. The live endpoint drains in-flight
// requests instead of dropping them — this is the SIGINT/SIGTERM exit path.
func (r *singleRig) Close() {
	if r.live != nil {
		r.live.Shutdown(2 * time.Second) //nolint:errcheck // force-closed on a stuck drain
	}
}

// buildSingle wires the single-channel rig from flags without starting it.
func buildSingle(f cfgFromFlags) (*singleRig, error) {
	spec, err := f.spec.Resolve()
	if err != nil {
		return nil, err
	}
	mapping, err := f.pol.ParseMapping()
	if err != nil {
		return nil, err
	}

	k := sim.NewKernel()
	reg := stats.NewRegistry("dramctrl")
	r := &singleRig{f: f, spec: spec, mapping: mapping, k: k, reg: reg, deadline: 100 * sim.Second}
	r.mgr = checkpoint.NewManager(f.fingerprint(spec))
	r.mgr.Register("kernel", checkpoint.WrapKernel(k))

	// The observation hub must exist before the controller: the models
	// snapshot it at construction (nil when no probe is attached, so the
	// instrumented paths stay a single branch).
	hub := obs.NewHub()
	if f.obs.Tracing() {
		tw, err := obs.NewTraceWriter(f.obs.TracePath)
		if err != nil {
			return nil, err
		}
		tracer := obs.NewTracer(0)
		hub.Attach(tracer)
		r.tw = tw
		r.sink = obs.NewTraceSink(tw, tracer)
	}

	switch f.pol.Model {
	case "event":
		cfg := core.DefaultConfig(spec)
		cfg.Mapping = mapping
		cfg.PowerDownIdle = sim.Tick(f.powerDownNs) * sim.Nanosecond
		cfg.SelfRefreshIdle = sim.Tick(f.selfRefreshNs) * sim.Nanosecond
		if cfg.Page, err = f.pol.CorePage(); err != nil {
			return nil, err
		}
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = core.FCFS
		}
		cfg.Faults = f.faults
		cfg.ECCCorrectionLatency = sim.Tick(f.eccLatencyNs) * sim.Nanosecond
		cfg.FaultRetryLimit = f.retryLimit
		cfg.Probes = hub
		c, err := core.NewController(k, cfg, reg, "mc")
		if err != nil {
			return nil, err
		}
		r.ctrl, r.drain = c, c.Drain
		r.mgr.Register("mc", c)
	case "cycle":
		if f.faults.Enabled() {
			return nil, fmt.Errorf("fault injection is only modelled by the event-based controller")
		}
		if _, err := f.pol.CorePage(); err != nil {
			return nil, err
		}
		cfg := cyclesim.DefaultConfig(spec)
		cfg.Mapping = mapping
		if f.pol.ClosedPage() {
			cfg.Page = cyclesim.ClosedPage
		}
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = cyclesim.FCFS
		}
		cfg.Probes = hub
		c, err := cyclesim.NewController(k, cfg, reg, "mc")
		if err != nil {
			return nil, err
		}
		r.ctrl, r.drain = c, func() {}
		r.mgr.Register("mc", c)
	default:
		return nil, fmt.Errorf("unknown model %q", f.pol.Model)
	}

	// Optional capture monitor in front of the controller.
	sink := r.ctrl.Port()
	if f.traceOut != "" {
		r.mon = trafficgen.NewMonitor(k, reg, "mon")
		mem.Connect(r.mon.MemPort(), r.ctrl.Port())
		sink = r.mon.CPUPort()
	}

	// Optional bandwidth time series (paper §II-E: statistics at arbitrary
	// points in time).
	if f.intervalNs > 0 {
		series, err := stats.NewSeries(k, sim.Tick(f.intervalNs)*sim.Nanosecond,
			func() float64 {
				a := r.ctrl.PowerStats()
				return float64(a.ReadBursts+a.WriteBursts) * float64(spec.Org.BurstBytes())
			}, true)
		if err != nil {
			return nil, err
		}
		r.series = series
	}

	if f.traceIn != "" {
		file, err := os.Open(f.traceIn)
		if err != nil {
			return nil, err
		}
		recs, err := trafficgen.ParseTrace(file)
		file.Close()
		if err != nil {
			return nil, err
		}
		player := trafficgen.NewTracePlayer(k, recs, 0)
		mem.Connect(player.Port(), sink)
		r.done = player.Done
		r.start = func() {
			player.Start()
			fmt.Printf("replaying %d trace records from %s\n", len(recs), f.traceIn)
		}
	} else {
		pat, err := f.traf.BuildPattern(spec, mapping, 1)
		if err != nil {
			return nil, err
		}
		gen, err := trafficgen.New(k, f.traf.GenConfig(), pat, reg, "gen")
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), sink)
		r.gen = gen
		r.done = gen.Done
		r.start = gen.Start
		r.mgr.Register("gen", gen)
	}
	r.mgr.Register("stats", checkpoint.WrapStats(reg))
	// The trace sink registers last: its save flushes every tracer, so the
	// recorded file length covers all events up to the checkpoint tick.
	if r.sink != nil {
		r.mgr.Register("trace", r.sink)
	}

	// Live endpoint and periodic sampler (-obs-http / -obs-sample).
	if f.obs.Sampling() {
		if f.obs.HTTPAddr != "" {
			live, err := obs.NewLiveServer(f.obs.HTTPAddr)
			if err != nil {
				return nil, err
			}
			r.live = live
			fmt.Fprintf(os.Stderr, "dramctrl: live observation endpoint on http://%s/\n", live.Addr())
		}
		sampler, err := obs.NewSamplerProbe(k, reg, sim.Tick(f.obs.SampleNs)*sim.Nanosecond,
			[]obs.SampledSource{{Name: "mc", Src: r.ctrl}},
			func(now sim.Tick) {
				if r.live != nil {
					r.live.PublishStats(reg, now)
					r.live.PublishSample(now, "mc", r.ctrl.ObsSample())
				}
			})
		if err != nil {
			return nil, err
		}
		r.sampler = sampler
	}

	if f.watchdog.Enabled() {
		k.SetWatchdog(f.watchdog)
	}

	// Fresh-run arming, innermost first: trace header, series, sampler,
	// then the traffic source. A restored run skips all of it — the trace
	// file is truncated to the checkpoint's length instead, and the sampler
	// is rejected alongside checkpointing.
	innerStart := r.start
	r.start = func() {
		if r.tw != nil {
			if err := r.tw.BeginFresh(); err != nil {
				r.startErr = err
				return
			}
		}
		if r.series != nil {
			r.series.Start()
		}
		if r.sampler != nil {
			r.sampler.Start()
		}
		innerStart()
	}
	return r, nil
}

func run(f cfgFromFlags) error {
	if err := f.sup.Validate(); err != nil {
		return err
	}
	if err := f.obs.Validate(f.sup.Enabled()); err != nil {
		return err
	}
	if f.sup.Enabled() {
		// The trace monitor and the time series hold host-side state no
		// component hook serializes; refuse the combination instead of
		// resuming with silently empty captures. (-trace is fine: the trace
		// sink is a checkpoint component.)
		if f.traceIn != "" || f.traceOut != "" {
			return fmt.Errorf("checkpointing does not support trace capture/replay (drop -trace-in/-trace-out)")
		}
		if f.intervalNs > 0 {
			return fmt.Errorf("checkpointing does not support the -interval time series")
		}
	}

	var r *singleRig
	notify, stopNotify := supervisor.NotifySignals()
	defer stopNotify()
	res, err := supervisor.Run(f.sup.Config(notify), func() (supervisor.Session, error) {
		rig, err := buildSingle(f)
		if err != nil {
			return nil, err
		}
		r = rig
		return rig, nil
	})
	if err != nil {
		return err
	}
	if res.Interrupted {
		fmt.Printf("interrupted at %s; partial results:\n", res.Now)
	}

	if r.sink != nil {
		// Terminate the JSON array so the file is strict JSON. A later
		// -resume truncates back to the checkpointed length, terminator
		// included, so the resumed file still matches an uninterrupted run.
		if err := r.sink.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", f.obs.TracePath)
	}

	if r.gen != nil {
		fmt.Printf("mean read latency (generator): %.1f ns (p99 %.1f ns, %d samples)\n",
			r.gen.ReadLatency().Mean(), r.gen.ReadLatency().Percentile(99), r.gen.ReadLatency().Count())
	}
	fmt.Printf("spec %s, model %s, mapping %s, page %s\n", r.spec.Name, f.pol.Model, r.mapping, f.pol.Page)
	fmt.Printf("simulated %s in %d events\n", r.k.Now(), r.k.EventsExecuted())
	fmt.Printf("bandwidth %.2f GB/s (%.1f%% bus utilisation), row hit rate %.1f%%\n",
		r.ctrl.Bandwidth()/1e9, r.ctrl.BusUtilisation()*100, r.ctrl.RowHitRate()*100)
	act := r.ctrl.PowerStats()
	fmt.Printf("DRAM power: %s\n", power.Compute(r.spec, act))
	if f.faults.Enabled() {
		get := func(name string) float64 {
			if s, ok := r.reg.Get("dramctrl.mc." + name).(*stats.Scalar); ok {
				return s.Value()
			}
			return 0
		}
		fmt.Printf("faults (seed %d): %.0f corrected, %.0f uncorrected, %.0f retried, %.0f rows retired, %.0f scrubs (%.0f dropped)\n",
			f.faults.Seed, get("correctedErrors"), get("uncorrectedErrors"),
			get("retriedBursts"), get("retiredRows"), get("scrubWrites"), get("droppedScrubs"))
	}
	if act.PowerDownTime > 0 {
		fmt.Printf("power-down time: %s (%.1f%% of run)\n", act.PowerDownTime,
			float64(act.PowerDownTime)/float64(act.Elapsed)*100)
	}
	if act.SelfRefreshTime > 0 {
		fmt.Printf("self-refresh time: %s (%.1f%% of run)\n", act.SelfRefreshTime,
			float64(act.SelfRefreshTime)/float64(act.Elapsed)*100)
	}

	if r.series != nil {
		fmt.Println("\nbandwidth over time:")
		intervalSec := float64(f.intervalNs) * 1e-9
		for _, pt := range r.series.Points() {
			gbs := pt.Value / intervalSec / 1e9
			fmt.Printf("  %10s %8.2f GB/s\n", pt.At, gbs)
		}
	}
	if r.mon != nil && !res.Interrupted {
		out, err := os.Create(f.traceOut)
		if err != nil {
			return err
		}
		if err := trafficgen.FormatTrace(out, r.mon.Trace()); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("write %s: %w", f.traceOut, err)
		}
		fmt.Printf("captured %d records to %s\n", len(r.mon.Trace()), f.traceOut)
	}
	if f.jsonStats != "" {
		out, err := os.Create(f.jsonStats)
		if err != nil {
			return err
		}
		if err := r.reg.DumpJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("write %s: %w", f.jsonStats, err)
		}
		fmt.Printf("statistics written to %s\n", f.jsonStats)
	}
	if f.dumpStats {
		fmt.Println("\nstatistics:")
		if err := r.reg.Dump(os.Stdout); err != nil {
			return err
		}
	}
	if res.Interrupted {
		return errInterrupted
	}
	return nil
}
