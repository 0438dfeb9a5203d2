// Package system assembles complete simulated systems out of the building
// blocks: traffic generators or CPU cores, caches, crossbars and DRAM
// controllers (event-based or cycle-based). It is the Go equivalent of the
// gem5 Python configuration layer the paper describes in §II-E: every
// experiment driver, example and benchmark builds its system through this
// package.
package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// Controller is the behaviour shared by both controller models, letting
// experiments swap models without touching the harness.
type Controller interface {
	Port() *mem.ResponsePort
	Name() string
	Quiescent() bool
	BusUtilisation() float64
	Bandwidth() float64
	RowHitRate() float64
	AvgReadLatencyNs() float64
	PowerStats() power.Activity
}

// Drainer is implemented by controllers that hold writes back (the
// event-based model's low watermark); harnesses call it at the end of a
// run.
type Drainer interface {
	Drain()
}

// Kind selects the controller model.
type Kind int

// Controller model kinds.
const (
	// EventBased is the paper's contribution (internal/core).
	EventBased Kind = iota
	// CycleBased is the DRAMSim2-style baseline (internal/cyclesim).
	CycleBased
)

// String names the kind.
func (k Kind) String() string {
	if k == EventBased {
		return "event"
	}
	return "cycle"
}

// The paper matches queue sizes between the models for fair queueing
// latencies (§III): each direction of the split-queue model gets the same
// depth as the unified transaction queue of the baseline.
const matchedQueueDepth = 32

// MatchedEventConfig returns the event-based controller configuration used
// in the model comparisons ("we configure our model to match the timing
// parameters and scheduling policies of DRAMSim2", §III).
func MatchedEventConfig(spec dram.Spec, mapping dram.Mapping, channels int, closedPage bool) core.Config {
	cfg := core.DefaultConfig(spec)
	cfg.Mapping = mapping
	cfg.Channels = channels
	cfg.ReadBufferSize = matchedQueueDepth
	cfg.WriteBufferSize = matchedQueueDepth
	// Match DRAMSim2: no static latencies in validation runs.
	cfg.FrontendLatency = 0
	cfg.BackendLatency = 0
	if closedPage {
		cfg.Page = core.Closed
	} else {
		cfg.Page = core.Open
	}
	return cfg
}

// MatchedCycleConfig returns the cycle-based baseline configuration paired
// with MatchedEventConfig.
func MatchedCycleConfig(spec dram.Spec, mapping dram.Mapping, channels int, closedPage bool) cyclesim.Config {
	cfg := cyclesim.DefaultConfig(spec)
	cfg.Mapping = mapping
	cfg.Channels = channels
	cfg.TransQueueSize = matchedQueueDepth
	if closedPage {
		cfg.Page = cyclesim.ClosedPage
	} else {
		cfg.Page = cyclesim.OpenPage
	}
	return cfg
}

// buildController builds one channel controller of the requested kind with
// matched policies; channels tells the address decoder how many channel bits
// the crossbar consumes. tune, when set, adjusts the event-based
// configuration before construction; hub observes the controller.
func buildController(k *sim.Kernel, kind Kind, spec dram.Spec, mapping dram.Mapping, channels int,
	closedPage bool, tune func(*core.Config), hub *obs.Hub, reg *stats.Registry, name string) (Controller, error) {
	switch kind {
	case EventBased:
		cfg := MatchedEventConfig(spec, mapping, channels, closedPage)
		if tune != nil {
			tune(&cfg)
		}
		cfg.Probes = hub
		return core.NewController(k, cfg, reg, name)
	case CycleBased:
		cfg := MatchedCycleConfig(spec, mapping, channels, closedPage)
		cfg.Probes = hub
		return cyclesim.NewController(k, cfg, reg, name)
	}
	return nil, fmt.Errorf("system: unknown controller kind %d", kind)
}

// TrafficRig is a single generator driving a single controller — the
// configuration of the §III synthetic validation experiments.
type TrafficRig struct {
	K    *sim.Kernel
	Reg  *stats.Registry
	Gen  *trafficgen.Generator
	Ctrl Controller
}

// RigConfig shapes a TrafficRig.
type RigConfig struct {
	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	// Gen is the generator shape; Pattern supplies addresses.
	Gen     trafficgen.Config
	Pattern trafficgen.Pattern
	// TuneEvent optionally adjusts the matched default event-based
	// controller configuration before construction (used by ablation
	// studies and experiments that stress one policy knob).
	TuneEvent func(*core.Config)
	// Probes feeds observability events from the controller (see
	// internal/obs); nil or empty disables instrumentation.
	Probes *obs.Hub
}

// NewTrafficRig builds the generator-over-controller rig.
func NewTrafficRig(cfg RigConfig) (*TrafficRig, error) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	ctrl, err := buildController(k, cfg.Kind, cfg.Spec, cfg.Mapping, 1, cfg.ClosedPage,
		cfg.TuneEvent, cfg.Probes, reg, "mc")
	if err != nil {
		return nil, err
	}
	gen, err := trafficgen.New(k, cfg.Gen, cfg.Pattern, reg, "gen")
	if err != nil {
		return nil, err
	}
	mem.Connect(gen.Port(), ctrl.Port())
	return &TrafficRig{K: k, Reg: reg, Gen: gen, Ctrl: ctrl}, nil
}

// Run starts the generator and steps the simulation until the generator
// finishes and the controller drains, or until maxSim simulated time
// passes. It reports whether the run completed.
func (r *TrafficRig) Run(maxSim sim.Tick) bool { return run(r.NewSession("", r.K.Now()+maxSim)) }

// MultiChannelRig is a generator (or several) behind a crossbar fanning out
// to N channel controllers — the paper's Figure 1 topology and the HMC
// argument of §II-F.
type MultiChannelRig struct {
	K     *sim.Kernel
	Reg   *stats.Registry
	Gens  []*trafficgen.Generator
	Xbar  *xbar.Crossbar
	Ctrls []Controller
}

// MultiChannelConfig shapes a MultiChannelRig.
type MultiChannelConfig struct {
	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	Channels   int
	Xbar       xbar.Config
	// Gens and Patterns pair up; one generator per entry.
	Gens     []trafficgen.Config
	Patterns []trafficgen.Pattern
}

// NewMultiChannelRig builds the multi-channel system.
func NewMultiChannelRig(cfg MultiChannelConfig) (*MultiChannelRig, error) {
	if len(cfg.Gens) != len(cfg.Patterns) || len(cfg.Gens) == 0 {
		return nil, fmt.Errorf("system: generators (%d) and patterns (%d) must pair up", len(cfg.Gens), len(cfg.Patterns))
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	route, err := interleaveRoute(cfg.Spec, cfg.Mapping, cfg.Channels, maxRequestBytes(cfg.Gens))
	if err != nil {
		return nil, err
	}
	xb, err := xbar.New(k, cfg.Xbar, route, reg, "xbar")
	if err != nil {
		return nil, err
	}
	rig := &MultiChannelRig{K: k, Reg: reg, Xbar: xb}
	for i := 0; i < cfg.Channels; i++ {
		ctrl, err := buildController(k, cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels,
			cfg.ClosedPage, nil, nil, reg, fmt.Sprintf("mc%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(xb.AttachMemory("mem"), ctrl.Port())
		rig.Ctrls = append(rig.Ctrls, ctrl)
	}
	if rig.Gens, err = attachGens(k, xb, cfg.Gens, cfg.Patterns, reg); err != nil {
		return nil, err
	}
	return rig, nil
}

// interleaveRoute routes across channels at the mapping's interleave
// granularity, widened to at least minBytes so no request straddles a
// channel (the paper's cache-line-or-page default, §II-F).
func interleaveRoute(spec dram.Spec, mapping dram.Mapping, channels int, minBytes uint64) (xbar.Route, error) {
	dec, err := dram.NewDecoder(spec.Org, mapping, channels)
	if err != nil {
		return nil, err
	}
	gran := dec.InterleaveBytes()
	for gran < minBytes {
		gran *= 2
	}
	return xbar.InterleaveRoute(channels, gran), nil
}

func maxRequestBytes(gens []trafficgen.Config) uint64 {
	var n uint64
	for _, g := range gens {
		n = max(n, g.RequestBytes)
	}
	return n
}

// attachGens builds one generator per config and pattern pair on k, each a
// requestor of xb.
func attachGens(k *sim.Kernel, xb *xbar.Crossbar, cfgs []trafficgen.Config, pats []trafficgen.Pattern,
	reg *stats.Registry) ([]*trafficgen.Generator, error) {
	gens := make([]*trafficgen.Generator, len(cfgs))
	for i := range cfgs {
		gen, err := trafficgen.New(k, cfgs[i], pats[i], reg, fmt.Sprintf("gen%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), xb.AttachRequestor("gen"))
		gens[i] = gen
	}
	return gens, nil
}

// Run starts all generators and steps until done or the deadline.
func (r *MultiChannelRig) Run(maxSim sim.Tick) bool { return run(r.NewSession("", r.K.Now()+maxSim)) }

// AggregateBandwidth sums channel bandwidths.
func (r *MultiChannelRig) AggregateBandwidth() float64 { return sumBandwidth(r.Ctrls) }

func sumBandwidth(ctrls []Controller) float64 {
	var sum float64
	for _, c := range ctrls {
		sum += c.Bandwidth()
	}
	return sum
}

func avgBusUtilisation(ctrls []Controller) float64 {
	var sum float64
	for _, c := range ctrls {
		sum += c.BusUtilisation()
	}
	return sum / float64(len(ctrls))
}

// MultiCoreConfig shapes a FullSystem: cores with private L1s over a shared
// LLC and a multi-channel memory system (the §IV case-study topology).
type MultiCoreConfig struct {
	Cores int
	// Core shapes every core; Workload supplies each core's pattern.
	Core     cpu.Config
	Workload func(coreID int) trafficgen.Pattern

	L1  cache.Config
	LLC cache.Config

	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	Channels   int

	CoreXbar xbar.Config
	MemXbar  xbar.Config
}

// FullSystem is the assembled multi-core system.
type FullSystem struct {
	K     *sim.Kernel
	Reg   *stats.Registry
	Cores []*cpu.Core
	L1s   []*cache.Cache
	LLC   *cache.Cache
	Ctrls []Controller
}

// NewFullSystem wires cores -> L1s -> crossbar -> shared LLC -> crossbar ->
// channel controllers.
func NewFullSystem(cfg MultiCoreConfig) (*FullSystem, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("system: need at least one core")
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("system: nil workload factory")
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	fs := &FullSystem{K: k, Reg: reg}

	// Memory side first: channels behind the memory crossbar, interleaved
	// at the mapping granularity but never below the LLC line size (fills
	// must not straddle channels).
	route, err := interleaveRoute(cfg.Spec, cfg.Mapping, cfg.Channels, cfg.LLC.LineBytes)
	if err != nil {
		return nil, err
	}
	memXbar, err := xbar.New(k, cfg.MemXbar, route, reg, "memxbar")
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Channels; i++ {
		ctrl, err := buildController(k, cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels,
			cfg.ClosedPage, nil, nil, reg, fmt.Sprintf("mc%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(memXbar.AttachMemory("mem"), ctrl.Port())
		fs.Ctrls = append(fs.Ctrls, ctrl)
	}

	// Shared LLC between the core crossbar and the memory crossbar.
	llc, err := cache.New(k, cfg.LLC, reg, "llc")
	if err != nil {
		return nil, err
	}
	fs.LLC = llc
	mem.Connect(llc.MemPort(), memXbar.AttachRequestor("llc"))

	coreXbar, err := xbar.New(k, cfg.CoreXbar, func(mem.Addr) int { return 0 }, reg, "corexbar")
	if err != nil {
		return nil, err
	}
	mem.Connect(coreXbar.AttachMemory("llc"), llc.CPUPort())

	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(k, cfg.L1, reg, fmt.Sprintf("l1_%d", i))
		if err != nil {
			return nil, err
		}
		coreCfg := cfg.Core
		coreCfg.RequestorID = i
		c, err := cpu.New(k, coreCfg, cfg.Workload(i), reg, fmt.Sprintf("core%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(c.Port(), l1.CPUPort())
		mem.Connect(l1.MemPort(), coreXbar.AttachRequestor("l1"))
		fs.Cores = append(fs.Cores, c)
		fs.L1s = append(fs.L1s, l1)
	}
	return fs, nil
}

// Run starts every core and steps until all finish their regions of
// interest or maxSim passes; it reports completion.
func (fs *FullSystem) Run(maxSim sim.Tick) bool {
	for _, c := range fs.Cores {
		c.Start()
	}
	deadline := fs.K.Now() + maxSim
	for fs.K.Now() < deadline {
		fs.K.RunUntil(fs.K.Now() + 10*sim.Microsecond)
		done := true
		for _, c := range fs.Cores {
			if !c.Done() {
				done = false
				break
			}
		}
		if done {
			return true
		}
	}
	return false
}

// AggregateIPC averages per-core IPC.
func (fs *FullSystem) AggregateIPC() float64 {
	var sum float64
	for _, c := range fs.Cores {
		sum += c.IPC()
	}
	return sum / float64(len(fs.Cores))
}

// MemBandwidth sums controller bandwidths.
func (fs *FullSystem) MemBandwidth() float64 { return sumBandwidth(fs.Ctrls) }

// AvgBusUtilisation averages controller bus utilisation.
func (fs *FullSystem) AvgBusUtilisation() float64 { return avgBusUtilisation(fs.Ctrls) }
