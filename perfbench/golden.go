package main

// goldens are the statistics digests at the default seed, keyed by
// workload/model/requests-per-generator; the 500-request entries are the
// tests' short runs. A change that alters simulated behaviour on purpose
// updates them from the digests a failing run prints.
var goldens = map[string]string{
	"fig4_mix_saturated/event/40000":   "f9ba72d11c1d6e5c",
	"fig4_mix_saturated/cycle/40000":   "f35e269d221200a1",
	"hmc16_spaced/event/40000":         "a13d3b85d6bd2760",
	"hmc16_spaced/cycle/40000":         "2e33fe73d0d75db9",
	"sharded4_saturated/event/10000":   "ffbd2226cbad6932",
	"sharded4_saturated/cycle/10000":   "4d3e076ac4b751a7",
	"traced_closed_writes/event/20000": "5de6a471856bb9e4",
	"traced_closed_writes/cycle/20000": "3c86a49b6a6e8e7d",

	"fig4_mix_saturated/event/500":   "7153487d615d0651",
	"fig4_mix_saturated/cycle/500":   "c77cfc039481564b",
	"hmc16_spaced/event/500":         "5ab8e9551dd96953",
	"hmc16_spaced/cycle/500":         "514af3e81b9137cf",
	"sharded4_saturated/event/500":   "e552a2ab59cbc154",
	"sharded4_saturated/cycle/500":   "88479f44f047df97",
	"traced_closed_writes/event/500": "7240fa0db2b5eb9d",
	"traced_closed_writes/cycle/500": "050d4b626c3c0ea9",
}
