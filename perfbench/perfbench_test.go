package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"splitmem/internal/attacks"
	"splitmem/internal/serve"
	"splitmem/internal/workloads"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	if v, beyond := percentile(seq(100), 0.9); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v := median(seq(101)); v != 51 {
		t.Errorf("median of 1..101 = %v, want 51", v)
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{50, 0.80, true},
		{49, 0.80, false},
	} {
		_, err := tail(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("tail(n=%d, p=%v): err=%v, want ok=%v", c.n, c.p, err, c.ok)
		}
	}
}

func TestCalmWindows(t *testing.T) {
	ws := func(steals ...float64) []window {
		var out []window
		for _, s := range steals {
			out = append(out, window{steal: s})
		}
		return out
	}
	for _, c := range []struct {
		steals []float64
		want   int
	}{
		{[]float64{0, 0.01, 0.02, 0.01}, 4},          // no steal to speak of: keep all
		{[]float64{0, 0, 0.3, 0.01, 0.5}, 3},         // bursts drop out
		{[]float64{0.15, 0.16, 0.14}, 2},             // steady steal: the calmer half
		{[]float64{0.4, 0.4, 0.4, 0.4, 0.4, 0.4}, 6}, // ties stay
	} {
		if got := len(calm(ws(c.steals...))); got != c.want {
			t.Errorf("calm(%v) kept %d windows, want %d", c.steals, got, c.want)
		}
	}
}

func TestCreditSplitsStraddlingJobs(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	ws := []window{{start: at(0), end: at(time.Second)}, {start: at(time.Second), end: at(2 * time.Second)}}
	jobs := []interval{{at(500 * time.Millisecond), at(1500 * time.Millisecond)}, {at(1200 * time.Millisecond), at(1400 * time.Millisecond)}}
	if got := credit(jobs, nil, ws); got[0] != 0.5 || got[1] != 1.5 {
		t.Errorf("credit = %v, want [0.5 1.5]", got)
	}
	if got := credit(jobs, []float64{10, 4}, ws); got[0] != 5 || got[1] != 9 {
		t.Errorf("weighted credit = %v, want [5 9]", got)
	}
}

func TestPhaseMetricsSkipAStolenSecond(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	var jobs []interval
	var cycles []float64
	var ws []window
	// Two hundred 10 ms jobs a second for five seconds, except that second 2
	// is stolen: one job spans all of it.
	for s := 0; s < 5; s++ {
		w := window{start: at(time.Duration(s) * time.Second), end: at(time.Duration(s+1) * time.Second),
			cpu: time.Second, peakRSS: 10}
		if s == 2 {
			w.steal, w.peakRSS = 0.5, 99
			jobs = append(jobs, interval{w.start, w.end})
			cycles = append(cycles, 1e6)
		} else {
			for k := 0; k < 100; k++ {
				start := w.start.Add(time.Duration(k) * 10 * time.Millisecond)
				jobs = append(jobs, interval{start, start.Add(10 * time.Millisecond)})
				cycles = append(cycles, 1e6)
			}
		}
		ws = append(ws, w)
	}
	out := newOutcome()
	if err := phaseMetrics(out, "test", jobs, cycles, nil, ws, 0.9); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"jobs_per_s": 100, "job_p50_ms": 10, "job_tail_ms": 10,
		"cpu_ms_per_job": 10, "sim_mcps_cpu": 100, "peak_rss_mib": 10,
	} {
		if got := out.e2e[name]; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestPhaseMetricsWidenLatencyWindowsForTheTailRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var jobs []interval
	var ws []window
	// Three windows of 40 jobs; the stolen one must join the calm two, or
	// p90 would have only 8 samples beyond it.
	for s := 0; s < 3; s++ {
		w := window{start: t0.Add(time.Duration(s) * time.Second), end: t0.Add(time.Duration(s+1) * time.Second), cpu: time.Second}
		if s == 1 {
			w.steal = 0.5
		}
		for k := 0; k < 40; k++ {
			start := w.start.Add(time.Duration(k) * 20 * time.Millisecond)
			jobs = append(jobs, interval{start, start.Add(20 * time.Millisecond)})
		}
		ws = append(ws, w)
	}
	out := newOutcome()
	if err := phaseMetrics(out, "test", jobs, make([]float64, len(jobs)), nil, ws, 0.9); err != nil {
		t.Fatal(err)
	}
	if got := out.e2e["jobs_per_s"]; got != 40 {
		t.Errorf("jobs_per_s = %v, want 40", got)
	}
	if !strings.Contains(out.notes[0], "latency over 120 jobs") {
		t.Errorf("note %q: want latency over all 120 jobs", out.notes[0])
	}
}

func TestPhaseMetricsPerJobStealPicksCalmJobs(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var jobs []interval
	var steal []float64
	// Back-to-back 10 ms jobs; every fifth is stolen and takes 50 ms. No
	// window is stolen enough to drop out.
	at := t0
	for i := 0; i < 180; i++ {
		d, s := 10*time.Millisecond, 0.0
		if i%5 == 0 {
			d, s = 50*time.Millisecond, 0.4
		}
		jobs = append(jobs, interval{at, at.Add(d)})
		steal = append(steal, s)
		at = at.Add(d)
	}
	ws := []window{
		{start: t0, end: t0.Add(time.Second), cpu: time.Second, steal: 0.01},
		{start: t0.Add(time.Second), end: t0.Add(4 * time.Second), cpu: time.Second, steal: 0.01},
	}
	for _, c := range []struct {
		steal []float64
		tail  float64
		n     int
	}{
		{nil, 50, 180},   // windows alone keep the stolen jobs
		{steal, 10, 144}, // their own steal drops them
	} {
		out := newOutcome()
		if err := phaseMetrics(out, "test", jobs, make([]float64, len(jobs)), c.steal, ws, 0.9); err != nil {
			t.Fatal(err)
		}
		if got := out.e2e["job_tail_ms"]; got != c.tail {
			t.Errorf("jobSteal=%v: job_tail_ms = %v, want %v", c.steal != nil, got, c.tail)
		}
		if want := fmt.Sprintf("latency over %d jobs", c.n); !strings.Contains(out.notes[0], want) {
			t.Errorf("note %q: want %q", out.notes[0], want)
		}
	}
	// Of 110 jobs the 88 calm ones leave 8 beyond p90, so stolen ones join
	// until ten do.
	out := newOutcome()
	if err := phaseMetrics(out, "test", jobs[:110], make([]float64, 110), steal[:110], ws, 0.9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.notes[0], "latency over 100 jobs") {
		t.Errorf("note %q: want latency over 100 jobs", out.notes[0])
	}
}

func TestAttributeSelfTimeAndUnattributed(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	spans := []span{
		{"gw.job", at(1), at(9)},
		{"gw.relay", at(2), at(8)},
		{"rep.enqueue-wait", at(2.5), at(3)},
		{"rep.run", at(3), at(7.5)},
		{"rep.run-slice", at(3.5), at(5)},
		{"rep.checkpoint", at(5), at(6)},
		{"rep.restore", at(6), at(6.5)},       // not ranked: stays with rep.run
		{"rep.run-slice", at(7), time.Time{}}, // never ended: ignored
	}
	b := breakdown(at(0), at(10), spans)
	want := map[string]float64{
		"client": 10, "front": 2, "gwSelf": 2, "admitUnspanned": 1,
		"enqueue": 0.5, "runSelf": 2, "slice": 1.5, "checkpoint": 1, "relay": 6,
	}
	got := map[string]float64{
		"client": ms(b.client), "front": ms(b.front), "gwSelf": ms(b.gwSelf),
		"admitUnspanned": ms(b.admitUnspanned), "enqueue": ms(b.enqueue),
		"runSelf": ms(b.runSelf), "slice": ms(b.slice), "checkpoint": ms(b.checkpoint),
		"relay": ms(b.relay),
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", k, got[k], w)
		}
	}
	var sum time.Duration
	for _, p := range b.parts() {
		sum += p
	}
	if sum != b.client {
		t.Errorf("parts sum to %v, client is %v", sum, b.client)
	}
	if u := ms(b.unattributed()); u != 3 {
		t.Errorf("unattributed = %v ms, want 3 (front 2 + relay self 1)", u)
	}

	// Spans reaching outside the client interval are clipped to it.
	b = breakdown(at(1), at(2), []span{{"gw.job", at(0), at(5)}})
	if b.client != time.Millisecond || b.gwSelf != time.Millisecond || b.front != 0 {
		t.Errorf("clipped breakdown = %+v", b)
	}
}

func TestTamperedPinnedCyclesFail(t *testing.T) {
	m := workloads.Metrics{Cycles: simPinned["spawn.split"]}
	if err := checkSimRun("spawn.split", m, nil, simPinned); err != nil {
		t.Fatalf("pinned count rejected: %v", err)
	}
	tampered := map[string]uint64{}
	for k, v := range simPinned {
		tampered[k] = v
	}
	tampered["spawn.split"]++
	if err := checkSimRun("spawn.split", m, nil, tampered); err == nil {
		t.Error("tampered expected cycles not reported")
	}
	var c counter
	c.check(checkSimRun("spawn.split", m, nil, tampered))
	c.check(checkSimRun("spawn.split", m, nil, simPinned))
	if c.n != 2 || c.failed != 1 {
		t.Errorf("counter = %d attempted, %d failed; want 2, 1", c.n, c.failed)
	}
}

func TestTamperedOracleResultFails(t *testing.T) {
	want := oracleResult{Reason: "all-done", Cycles: 12345, Detections: 1}
	got := wireResult{Reason: "all-done", Cycles: 12345, Detections: 1}
	if err := checkResult("job", got, want); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	for name, tamper := range map[string]func(*oracleResult){
		"cycles":     func(o *oracleResult) { o.Cycles++ },
		"reason":     func(o *oracleResult) { o.Reason = "budget" },
		"detections": func(o *oracleResult) { o.Detections = 2 },
		"shell":      func(o *oracleResult) { o.ShellSpawned = true },
	} {
		w := want
		tamper(&w)
		if err := checkResult("job", got, w); err == nil {
			t.Errorf("tampered oracle %s not reported", name)
		}
	}
}

// TestTamperedOracleCountsAsFailureThroughCluster drives one attack job
// through a real gateway and replicas against a tampered oracle.
func TestTamperedOracleCountsAsFailureThroughCluster(t *testing.T) {
	src, stdin, err := attacks.OneShot(attacks.TechRet, attacks.SegStack)
	if err != nil {
		t.Fatal(err)
	}
	spec := detonateSpec{
		name: "test",
		bodies: []jobBody{{name: "ret-stack", body: mustJSON(serve.JobRequest{
			Name: "ret-stack", Source: src, CRT: true, Stdin: stdin,
			Config: serve.JobConfig{Protection: "split"}, TimeoutMS: jobTimeoutMS,
		})}},
		replica: serve.Config{Workers: runtime.NumCPU(), WarmPool: true},
	}
	if err := oracles(spec.bodies, func(oracleResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, tamper := range []bool{false, true} {
		if tamper {
			spec.bodies[0].want.Cycles++
		}
		var c counter
		h, d, err := bootCluster(context.Background(), &spec, 1, &c)
		if err != nil {
			t.Fatal(err)
		}
		d.close(h)
		if wantFailed := map[bool]int{false: 0, true: 1}[tamper]; c.n != 1 || c.failed != wantFailed {
			t.Errorf("tampered=%v: %d attempted, %d failed (%v); want 1, %d", tamper, c.n, c.failed, c.errs, wantFailed)
		}
	}
}

// TestTracedLoadAlternatesBlocks runs the traced load through a real
// gateway: untraced and traced blocks alternate in pairs, only traced jobs
// carry spans, and the untraced blocks' wall time and allocation are read.
func TestTracedLoadAlternatesBlocks(t *testing.T) {
	src, stdin, err := attacks.OneShot(attacks.TechRet, attacks.SegStack)
	if err != nil {
		t.Fatal(err)
	}
	spec := detonateSpec{
		name: "test",
		bodies: []jobBody{{name: "ret-stack", body: mustJSON(serve.JobRequest{
			Name: "ret-stack", Source: src, CRT: true, Stdin: stdin,
			Config: serve.JobConfig{Protection: "split"}, TimeoutMS: jobTimeoutMS,
		})}},
		replica: serve.Config{Workers: 2, WarmPool: true},
	}
	if err := oracles(spec.bodies, func(oracleResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var c counter
	h, d, err := bootCluster(context.Background(), &spec, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close(h)
	r, err := d.tracedLoad(context.Background(), &spec, 2, 1, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if np, nt := len(r.plain.jobs), len(r.traced.jobs); np != nt || np%4 != 0 {
		t.Errorf("%d untraced and %d traced jobs; want equal multiples of 2 clients x 2 jobs", np, nt)
	}
	for _, j := range r.plain.jobs {
		if len(j.spans) != 0 {
			t.Fatalf("untraced job has %d spans", len(j.spans))
		}
	}
	for _, j := range r.traced.jobs {
		if !traceClosed(j.spans) {
			t.Fatalf("traced job spans %v lack a closed gw.job", j.spans)
		}
	}
	if r.plainWall <= 0 || r.plainAlloc == 0 {
		t.Errorf("untraced wall %v, alloc %d; want both positive", r.plainWall, r.plainAlloc)
	}
	out := newOutcome()
	detLayers(out, r)
	if got := out.layer["sim_mcps_wall"]; !(got > 0) {
		t.Errorf("sim_mcps_wall = %v", got)
	}
}

func TestSumMetrics(t *testing.T) {
	text := `# HELP splitmem_gateway_retries_total retries
# TYPE splitmem_gateway_retries_total counter
splitmem_gateway_retries_total{reason="shed 429"} 3
splitmem_gateway_retries_total{reason="transport"} 2
splitmem_serve_forks_total{replica="r0"} 10 1700000000
splitmem_serve_forks_total{replica="r1"} 5
splitmem_serve_workers 2
`
	got := sumMetrics(text)
	for name, want := range map[string]float64{
		"splitmem_gateway_retries_total": 5,
		"splitmem_serve_forks_total":     15,
		"splitmem_serve_workers":         2,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestBuildResult(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	for _, m := range endToEnd[1:] {
		o.e2e[m.name] = 1
	}
	if _, err := buildResult(o, false); err == nil {
		t.Error("missing end-to-end metric not reported")
	}
	o.e2e[endToEnd[0].name] = 1
	res, err := buildResult(o, false)
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("buildResult = %+v, %v", res, err)
	}
	o.failed = 1
	if res, _ := buildResult(o, false); res.Correct {
		t.Error("a failed operation left the run correct")
	}
	o.layer["serve.slice_ms"] = math.NaN()
	res, err = buildResult(o, true)
	if err != nil || len(res.Metrics) != len(perLayer) || res.Metrics["serve.slice_ms"].Value != 0 {
		t.Errorf("per-layer result = %v, %v", res.Metrics["serve.slice_ms"], err)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metrics this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloadFuncs {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if !slices.Equal(g, w) {
			t.Errorf("BENCHMARK.json %s:\n%s\ncode:\n%s", kind, strings.Join(g, ", "), strings.Join(w, ", "))
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
