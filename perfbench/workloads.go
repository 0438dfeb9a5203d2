package main

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// defaultSeed is the seed the committed golden digests were taken at.
const defaultSeed = 1

// maxOutstanding is every generator's closed-loop limit.
const maxOutstanding = 32

// topology selects which system rig a workload runs on.
type topology int

const (
	single  topology = iota // one generator over one controller
	multi                   // generators behind a crossbar, one kernel
	sharded                 // crossbar on a front kernel, one kernel per channel
)

// workload is one named input the benchmark runs. Every field is fixed by
// the name except the pattern seeds, which patterns derives from the
// benchmark's seed argument.
type workload struct {
	name     string
	topo     topology
	spec     dram.Spec
	mapping  dram.Mapping
	closed   bool
	channels int
	gens     int
	// requests is the count per generator of one measured run. Runs are
	// fixed-size so that every run's statistics digest can be checked.
	requests uint64
	// itt is the inter-transaction gap added on top of the closed loop.
	itt sim.Tick
	// workers is the sharded rig's worker count.
	workers int
	// quanta is the sharded rig's adaptive lookahead in quanta.
	quanta int
	// observed attaches the Perfetto tracer and the command recorder, and
	// checks the recorded command stream with power.CheckTiming.
	observed bool
}

// workloads are the four named workloads; README.md says why each exists.
var workloads = []workload{
	{
		name: "fig4_mix_saturated", topo: single,
		spec: dram.DDR3_1333_8x8(), mapping: dram.RoRaBaCoCh,
		channels: 1, gens: 1, requests: 40000,
	},
	{
		name: "hmc16_spaced", topo: multi,
		spec: dram.HMCVault(), mapping: dram.RoRaBaCoCh,
		channels: 16, gens: 1, requests: 40000, itt: 1500 * sim.Picosecond,
	},
	{
		name: "sharded4_saturated", topo: sharded,
		spec: dram.DDR3_1333_8x8(), mapping: dram.RoRaBaCoCh,
		channels: 4, gens: 4, requests: 10000, workers: 2, quanta: 8,
	},
	{
		name: "traced_closed_writes", topo: single,
		spec: dram.DDR3_1333_8x8(), mapping: dram.RoCoRaBaCh, closed: true,
		channels: 1, gens: 1, requests: 20000, observed: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// totalRequests is the number of requests one run of w completes.
func (w workload) totalRequests() uint64 { return w.requests * uint64(w.gens) }

// genConfigs returns the generator shapes, one per generator.
func (w workload) genConfigs() []trafficgen.Config {
	gens := make([]trafficgen.Config, w.gens)
	for i := range gens {
		gens[i] = trafficgen.Config{
			RequestBytes:     w.spec.Org.BurstBytes(),
			MaxOutstanding:   maxOutstanding,
			InterTransaction: w.itt,
			Count:            w.requests,
		}
		if w.topo != single {
			gens[i].RequestorID = i
		}
	}
	return gens
}

// crossbar is the crossbar of the multi-channel topologies.
var crossbar = xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64}

// decoder is the address decoder of w's memory system.
func (w workload) decoder() (dram.Decoder, error) {
	return dram.NewDecoder(w.spec.Org, w.mapping, w.channels)
}

// derive mixes the benchmark seed with a stream index (splitmix64), so
// every pattern gets its own seed and the generators never see the
// benchmark seed itself.
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// patterns builds w's address patterns for one run from the benchmark seed.
// The same seed always yields the same streams.
func (w workload) patterns(seed int64) ([]trafficgen.Pattern, error) {
	dec, err := w.decoder()
	if err != nil {
		return nil, err
	}
	burst := w.spec.Org.BurstBytes()
	switch w.name {
	case "fig4_mix_saturated":
		return []trafficgen.Pattern{&trafficgen.DRAMAware{
			Decoder: dec, StrideBursts: 4, Banks: 8, ReadPercent: 50, Seed: derive(seed, 0),
		}}, nil
	case "hmc16_spaced":
		// An all-read linear stream draws no randomness, so the seed moves
		// the stream's start instead.
		start := mem.Addr(uint64(derive(seed, 0))%4096) * mem.Addr(burst)
		return []trafficgen.Pattern{&trafficgen.Linear{
			Start: start, End: start + 1<<26, Step: burst, ReadPercent: 100, Seed: derive(seed, 1),
		}}, nil
	case "sharded4_saturated":
		ps := make([]trafficgen.Pattern, w.gens)
		for i := range ps {
			if i%2 == 0 {
				ps[i] = &trafficgen.Linear{
					Start: 0, End: 1 << 26, Step: burst, ReadPercent: 80, Seed: derive(seed, uint64(i)),
				}
			} else {
				ps[i] = &trafficgen.Random{
					Start: 0, End: 1 << 26, Align: burst, ReadPercent: 60, Seed: derive(seed, uint64(i)),
				}
			}
		}
		return ps, nil
	case "traced_closed_writes":
		// An all-write stream draws no randomness either; the seed picks
		// the first row, which the stream then walks upward from.
		row := uint64(derive(seed, 0)) % (w.spec.Org.RowsPerBank / 2)
		return []trafficgen.Pattern{&rowOffset{
			inner: &trafficgen.DRAMAware{
				Decoder: dec, StrideBursts: 4, Banks: 4, ReadPercent: 0, Seed: derive(seed, 1),
			},
			offset: dec.Encode(dram.Coord{Row: row}, 0),
		}}, nil
	}
	return nil, fmt.Errorf("no patterns for workload %q", w.name)
}

// rowOffset shifts a DRAM-aware stream up by a whole number of rows. Under
// RoCoRaBaCh the row bits are the top field, so adding the encoded row keeps
// each request's bank and column.
type rowOffset struct {
	inner  trafficgen.Pattern
	offset mem.Addr
}

func (p *rowOffset) Next() (mem.Addr, bool) {
	a, rd := p.inner.Next()
	return a + p.offset, rd
}
