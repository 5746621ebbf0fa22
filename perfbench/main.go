// Command perfbench is splitmem's benchmark. One invocation runs one
// workload for a fixed time, checks every result it gets against an
// oracle, and prints its metrics by name with their units; the last line
// of standard output is a JSON object with the run's correctness, attempt
// and failure counts and its metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. README.md in this directory
// documents every metric, workload and design choice.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-ctxsw --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of splitmem sees; every workload reports
// all of them in an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"sim_mcps_cpu", "Mcycles/s"},
	{"split_norm_perf", "ratio"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricSpec {
	var ms []metricSpec
	for _, g := range simProgs {
		for _, pr := range simProts {
			k := "workloads." + g.name + "." + pr.name
			ms = append(ms, metricSpec{k + ".host_ms", "ms"}, metricSpec{k + ".cpu_ms", "ms"},
				metricSpec{k + ".alloc_mib", "MiB"}, metricSpec{k + ".gc_cycles", "count"})
		}
		ms = append(ms, metricSpec{"workloads." + g.name + ".split_host_ratio", "ratio"},
			metricSpec{"workloads." + g.name + ".split_norm", "ratio"})
	}
	return append(ms, []metricSpec{
		{"client.job_ms", "ms"},
		{"cluster.front_ms", "ms"},
		{"cluster.gw_self_ms", "ms"},
		{"cluster.relay_ms", "ms"},
		{"serve.admit_unspanned_ms", "ms"},
		{"serve.enqueue_wait_ms", "ms"},
		{"serve.warm_hit_ratio", "ratio"},
		{"serve.forks_per_job", "count"},
		{"serve.rejected_429_per_job", "count"},
		{"cluster.retries_per_job", "count"},
		{"serve.checkpoint_ms", "ms"},
		{"serve.checkpoints_per_job", "count"},
		{"serve.slice_ms", "ms"},
		{"serve.run_self_ms", "ms"},
		{"cpu.instr_per_job", "count"},
		{"cpu.sb_entered_per_job", "count"},
		{"cpu.sb_side_exit_ratio", "ratio"},
		{"cpu.decode_hit_ratio", "ratio"},
		{"core.debug_traps_per_job", "count"},
		{"kernel.page_faults_per_job", "count"},
		{"kernel.ctx_switches_per_job", "count"},
		{"mem.cow_copies_per_job", "count"},
		{"tlb.itlb_miss_ratio", "ratio"},
		{"tlb.dtlb_miss_ratio", "ratio"},
		{"runtime.alloc_mib_per_job", "MiB"},
		{"unattributed_share", "ratio"},
		{"trace.overhead_share", "ratio"},
		{"host.steal_share", "ratio"},
		{"sim_mcps_wall", "Mcycles/s"},
	}...)
}()

// workloadFuncs are the benchmark's workloads; README.md says why each
// exists.
var workloadFuncs = map[string]func(seed int64, seconds int, trace bool) (*outcome, error){
	"sim-ctxsw":      runSim,
	"detonate-short": runDetonateShort,
	"detonate-long":  runDetonateLong,
}

// counter tallies checked operations.
type counter struct {
	n, failed int
	errs      []string
}

// check counts one operation and reports whether it passed.
func (c *counter) check(err error) bool {
	c.n++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err.Error())
	}
	return false
}

func (c *counter) merge(o *counter) {
	c.n += o.n
	c.failed += o.failed
	for _, e := range o.errs {
		if len(c.errs) < 10 {
			c.errs = append(c.errs, e)
		}
	}
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	errs              []string
	e2e, layer        map[string]float64
	steal             float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func beyondCount(xs []float64, p float64) int {
	_, b := percentile(xs, p)
	return b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics a run reports. A missing end-to-end
// metric is a benchmark bug; a per-layer metric a workload does not
// exercise reads 0.
func buildResult(o *outcome, trace bool) (resultLine, error) {
	res := resultLine{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	specs, vals := endToEnd, o.e2e
	if trace {
		specs, vals = perLayer, o.layer
	}
	for _, m := range specs {
		v, ok := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, ok = 0, false
		}
		if !ok && !trace {
			return res, fmt.Errorf("workload did not measure %s", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: sim-ctxsw, detonate-short or detonate-long")
	seed := flag.Int64("seed", 1, "input seed; it permutes job order only, never the mix")
	seconds := flag.Int("seconds", 30, "measured run length")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	flag.Parse()

	run, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim-ctxsw|detonate-short|detonate-long --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	host := newHostBlock()
	o, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := buildResult(o, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host.StealShare = o.steal

	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, e := range o.errs {
		fmt.Println("FAILED:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
