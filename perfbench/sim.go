package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"splitmem"
	"splitmem/internal/workloads"
)

// simProgs are the Fig. 7/8 context-switch programs, with the arguments
// the paper's figures use.
var simProgs = []struct {
	name string
	run  func(splitmem.Config) (workloads.Metrics, error)
}{
	{"pipe-ctxsw", func(c splitmem.Config) (workloads.Metrics, error) { return workloads.RunPipeCtxsw(c, 400) }},
	{"httpd", func(c splitmem.Config) (workloads.Metrics, error) { return workloads.RunHTTPD(c, 1024, 60) }},
	{"spawn", workloads.RunSpawn},
}

var simProts = []struct {
	name string
	prot splitmem.Protection
}{{"none", splitmem.ProtNone}, {"split", splitmem.ProtSplit}}

// simPinned holds the simulated cycles each program/protection pair takes.
// The simulator is deterministic, so any other count is a wrong result.
var simPinned = map[string]uint64{
	"pipe-ctxsw.none":  1995845,
	"pipe-ctxsw.split": 4473551,
	"httpd.none":       491157,
	"httpd.split":      879160,
	"spawn.none":       166349,
	"spawn.split":      353899,
}

// simPair is one program under one protection.
type simPair struct {
	prog, prot string
	cfg        splitmem.Config
	run        func(splitmem.Config) (workloads.Metrics, error)
}

func (p simPair) key() string { return p.prog + "." + p.prot }

func simPairs() []simPair {
	var ps []simPair
	for _, g := range simProgs {
		for _, pr := range simProts {
			ps = append(ps, simPair{g.name, pr.name, splitmem.Config{Protection: pr.prot}, g.run})
		}
	}
	return ps
}

// checkSimRun reports a run whose simulated cycles differ from the pinned
// count for its pair.
func checkSimRun(key string, m workloads.Metrics, err error, pinned map[string]uint64) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if want, ok := pinned[key]; !ok || m.Cycles != want {
		return fmt.Errorf("%s: %d simulated cycles, want %d", key, m.Cycles, want)
	}
	return nil
}

// callSample is one traced simulator call.
type callSample struct {
	host, cpu time.Duration
	alloc     uint64
	gcs       uint32
}

// simRunner drives back-to-back passes of all six pairs on one goroutine.
type simRunner struct {
	pairs   []simPair
	rng     *rand.Rand
	checked counter
	last    map[string]workloads.Metrics
}

// pass runs every pair once in a seed-permuted order and returns the
// simulated cycles it retired. A traced pass times each call and reads
// runtime.MemStats around it.
func (s *simRunner) pass(traced map[string][]callSample) uint64 {
	var cycles uint64
	for _, i := range s.rng.Perm(len(s.pairs)) {
		p := s.pairs[i]
		var m workloads.Metrics
		var err error
		if traced == nil {
			m, err = p.run(p.cfg)
		} else {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			c0, t0 := cpuTime(), time.Now()
			m, err = p.run(p.cfg)
			host, cpu := time.Since(t0), cpuTime()-c0
			runtime.ReadMemStats(&ms1)
			traced[p.key()] = append(traced[p.key()], callSample{
				host: host, cpu: cpu,
				alloc: ms1.TotalAlloc - ms0.TotalAlloc, gcs: ms1.NumGC - ms0.NumGC,
			})
		}
		if s.checked.check(checkSimRun(p.key(), m, err, simPinned)) {
			s.last[p.key()] = m
		}
		cycles += m.Cycles
	}
	return cycles
}

// simPhase is one timed stretch of passes.
type simPhase struct {
	passes         []interval
	traced         []bool    // traced[i]: pass i timed each call
	passCycles     []float64 // simulated cycles of each pass
	passSteal      []float64 // steal share during each pass
	windows        []window
	ticks0, ticks1 cpuTicks
}

// phase runs passes for d. Given a calls map, every other pass is traced
// into it, so traced and untraced passes see the same host conditions.
func (s *simRunner) phase(d time.Duration, calls map[string][]callSample) simPhase {
	from := time.Now()
	ph := simPhase{ticks0: readCPUTicks()}
	smp := startSampler(from.Add(d))
	ticks := ph.ticks0
	for time.Since(from) < d {
		traced := calls != nil && len(ph.passes)%2 == 1
		var into map[string][]callSample
		if traced {
			into = calls
		}
		t0 := time.Now()
		c := s.pass(into)
		ph.passes = append(ph.passes, interval{t0, time.Now()})
		next := readCPUTicks()
		ph.passSteal = append(ph.passSteal, stealShare(ticks, next))
		ticks = next
		ph.passCycles = append(ph.passCycles, float64(c))
		ph.traced = append(ph.traced, traced)
	}
	ph.ticks1 = readCPUTicks()
	ph.windows = smp.finish()
	return ph
}

// passMillis returns the times of the traced or the untraced passes.
func (ph simPhase) passMillis(traced bool) []float64 {
	var xs []float64
	for i, p := range ph.passes {
		if ph.traced[i] == traced {
			xs = append(xs, ms(p.end.Sub(p.start)))
		}
	}
	return xs
}

// setupPasses is how many warm-up passes set-up runs; setup_s is the median
// of the calm ones (see calmOrder), as for the measured passes. Pass times swing by a fifth from one
// pass to the next as collections fall, so it takes this many for a steady
// median.
const setupPasses = 15

// untracedMcpsWall is simulated Mcycles per wall second over the untraced
// passes, which time no call.
func (ph simPhase) untracedMcpsWall() float64 {
	var cycles float64
	var wall time.Duration
	for i, p := range ph.passes {
		if !ph.traced[i] {
			cycles += ph.passCycles[i]
			wall += p.end.Sub(p.start)
		}
	}
	return cycles / 1e6 / wall.Seconds()
}

// simTailP is the sim-ctxsw tail percentile: a pass takes ~0.1 s, so a run
// yields a few hundred passes, enough for p90 but not p99.
const simTailP = 0.90

// runSim is the sim-ctxsw workload. A job is one pass over the six
// program/protection pairs.
func runSim(seed int64, seconds int, trace bool) (*outcome, error) {
	s := &simRunner{pairs: simPairs(), rng: rand.New(rand.NewSource(seed)), last: map[string]workloads.Metrics{}}
	var setups, setupSteal []float64
	ticks := readCPUTicks()
	for i := 0; i < setupPasses; i++ {
		t0 := time.Now()
		s.pass(nil)
		setups = append(setups, time.Since(t0).Seconds())
		next := readCPUTicks()
		setupSteal = append(setupSteal, stealShare(ticks, next))
		ticks = next
	}
	if len(s.last) != len(s.pairs) {
		return nil, fmt.Errorf("sim-ctxsw: set-up passes failed: %v", s.checked.errs)
	}

	out := newOutcome()
	ranked, calmSetups := rankByCalm(setups, setupSteal)
	out.e2e["setup_s"] = median(ranked[:calmSetups])
	out.e2e["split_norm_perf"] = s.splitNormPerf(out)

	total := time.Duration(seconds) * time.Second
	if !trace {
		ph := s.phase(total, nil)
		if err := phaseMetrics(out, "sim-ctxsw", ph.passes, ph.passCycles, ph.passSteal, ph.windows, simTailP); err != nil {
			return nil, err
		}
		out.steal = stealShare(ph.ticks0, ph.ticks1)
	} else {
		// The difference between traced and untraced passes is what timing
		// each call and reading MemStats around it costs.
		calls := map[string][]callSample{}
		ph := s.phase(total, calls)
		s.layers(out, ph, calls)
		out.layer["trace.overhead_share"] = median(ph.passMillis(true))/median(ph.passMillis(false)) - 1
		out.layer["sim_mcps_wall"] = ph.untracedMcpsWall()
		out.steal = stealShare(ph.ticks0, ph.ticks1)
		out.layer["host.steal_share"] = out.steal
	}
	out.attempted, out.failed, out.errs = s.checked.n, s.checked.failed, s.checked.errs
	return out, nil
}

// splitNormPerf is the geomean over programs of split/none simulated
// throughput, from the set-up passes' results.
func (s *simRunner) splitNormPerf(out *outcome) float64 {
	var ratios []float64
	for _, g := range simProgs {
		r := workloads.Normalized(s.last[g.name+".none"], s.last[g.name+".split"])
		out.layer["workloads."+g.name+".split_norm"] = r
		ratios = append(ratios, r)
	}
	return geomean(ratios)
}

func (s *simRunner) layers(out *outcome, ph simPhase, calls map[string][]callSample) {
	var covered time.Duration
	for _, g := range simProgs {
		host := map[string]float64{}
		for _, pr := range simProts {
			key := g.name + "." + pr.name
			var hs, cs, as, gs []float64
			for _, c := range calls[key] {
				covered += c.host
				hs = append(hs, ms(c.host))
				cs = append(cs, ms(c.cpu))
				as = append(as, float64(c.alloc)/(1<<20))
				gs = append(gs, float64(c.gcs))
			}
			host[pr.name] = median(hs)
			out.layer["workloads."+key+".host_ms"] = host[pr.name]
			out.layer["workloads."+key+".cpu_ms"] = median(cs)
			out.layer["workloads."+key+".alloc_mib"] = median(as)
			out.layer["workloads."+key+".gc_cycles"] = mean(gs)
		}
		out.layer["workloads."+g.name+".split_host_ratio"] = host["split"] / host["none"]
	}
	var wall time.Duration
	for i, p := range ph.passes {
		if ph.traced[i] {
			wall += p.end.Sub(p.start)
		}
	}
	// In sim-ctxsw the only spans are the benchmark's own calls; the pass
	// time outside them is the permutation and bookkeeping between calls.
	out.layer["unattributed_share"] = 1 - float64(covered)/float64(wall)
}
