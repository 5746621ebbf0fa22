package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"splitmem"
	"splitmem/internal/attacks"
	"splitmem/internal/cluster"
	"splitmem/internal/serve"
	"splitmem/internal/telemetry/hostspan"
	"splitmem/internal/workloads"
)

// jobTimeoutMS is every job's wall-clock limit. It is far above any job's
// time on a loaded 2-CPU host, so a timeout means a stuck service.
const jobTimeoutMS = 60_000

// setupBoots is how many times set-up boots and warms a cluster; setup_s is
// the median. The last cluster booted is the one measured.
const setupBoots = 7

// setupAllowance is how long a run may spend outside its measured phase:
// oracles, cluster boots and the traced run's barriers. With the measured
// phase it bounds a whole run, so the benchmark always exits.
const setupAllowance = 140 * time.Second

// oracleResult is what an in-process run of a job body produced.
type oracleResult struct {
	Reason       string
	Cycles       uint64
	Detections   int
	ShellSpawned bool
}

// jobBody is one distinct job the workload submits, with its oracle.
type jobBody struct {
	name       string
	body       []byte
	want       oracleResult // in-process run under the body's own (split) config
	noneCycles uint64       // the same body in-process with protection off
}

// detonateSpec is one cluster workload.
type detonateSpec struct {
	name    string
	bodies  []jobBody
	replica serve.Config
	tailP   float64
}

func runDetonateShort(seed int64, seconds int, trace bool) (*outcome, error) {
	var bodies []jobBody
	for _, tech := range attacks.Techniques() {
		for _, seg := range attacks.Segments() {
			src, stdin, err := attacks.OneShot(tech, seg)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, jobBody{
				name: fmt.Sprintf("wilander-%v-%v", tech, seg),
				body: mustJSON(serve.JobRequest{
					Name: fmt.Sprintf("wilander-%v-%v", tech, seg), Source: src, CRT: true, Stdin: stdin,
					Config: serve.JobConfig{Protection: "split"}, TimeoutMS: jobTimeoutMS,
				}),
			})
		}
	}
	// An attack job must be caught exactly once and never reach its shell.
	check := func(o oracleResult) error {
		if o.Detections != 1 || o.ShellSpawned {
			return fmt.Errorf("oracle run has %d detections, shell spawned %v", o.Detections, o.ShellSpawned)
		}
		return nil
	}
	return runDetonate(detonateSpec{
		name:    "detonate-short",
		bodies:  bodies,
		replica: serve.Config{Workers: runtime.NumCPU(), WarmPool: true},
		tailP:   0.99,
	}, check, seed, seconds, trace)
}

func runDetonateLong(seed int64, seconds int, trace bool) (*outcome, error) {
	gz, ok := workloads.Lookup("gzip")
	if !ok {
		return nil, fmt.Errorf("no gzip workload")
	}
	body := mustJSON(serve.JobRequest{
		Name: "gzip", Source: gz.Src, StdinText: gz.Input,
		Config: serve.JobConfig{Protection: "split"}, TimeoutMS: jobTimeoutMS,
	})
	check := func(o oracleResult) error {
		if o.Reason != splitmem.ReasonAllDone.String() || o.Detections != 0 || o.ShellSpawned {
			return fmt.Errorf("oracle run ended %s with %d detections", o.Reason, o.Detections)
		}
		return nil
	}
	return runDetonate(detonateSpec{
		name:   "detonate-long",
		bodies: []jobBody{{name: "gzip", body: body}},
		replica: serve.Config{
			Workers: runtime.NumCPU(), WarmPool: true,
			StreamSlice: 500_000, CheckpointCycles: 2_000_000,
		},
		// A gzip job takes ~0.5 s of a CPU, so a 30 s run on 2 CPUs sees
		// ~110 jobs; p80 keeps 10 samples beyond it even at half that rate.
		tailP: 0.80,
	}, check, seed, seconds, trace)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// runOracle runs a job body in-process the way a replica does, with the
// body's protection replaced by prot when prot is not empty.
func runOracle(body []byte, prot string) (oracleResult, error) {
	req, err := serve.DecodeJob(body)
	if err != nil {
		return oracleResult{}, err
	}
	if prot != "" {
		req.Config.Protection = prot
	}
	cfg, err := req.MachineConfig()
	if err != nil {
		return oracleResult{}, err
	}
	prog, err := req.Program()
	if err != nil {
		return oracleResult{}, err
	}
	m, err := splitmem.New(cfg)
	if err != nil {
		return oracleResult{}, err
	}
	defer m.Close()
	p, err := m.LoadProgram(prog, req.Name)
	if err != nil {
		return oracleResult{}, err
	}
	if in := req.InputBytes(); len(in) > 0 {
		p.StdinWrite(in)
	}
	if !req.KeepStdin {
		p.StdinClose()
	}
	r := m.Run(200_000_000) // the replica's default per-job budget
	return oracleResult{
		Reason:       r.Reason.String(),
		Cycles:       r.Cycles,
		Detections:   len(m.EventsOf(splitmem.EvInjectionDetected)),
		ShellSpawned: p.ShellSpawned(),
	}, nil
}

// oracles fills in every body's expected result, running bodies two at a
// time.
func oracles(bodies []jobBody, check func(oracleResult) error) error {
	errs := make([]error, len(bodies))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		sem <- struct{}{}
		go func(b *jobBody) {
			defer wg.Done()
			defer func() { <-sem }()
			want, err := runOracle(b.body, "")
			if err == nil {
				err = check(want)
			}
			var none oracleResult
			if err == nil {
				none, err = runOracle(b.body, "none")
			}
			if err != nil {
				errs[i] = fmt.Errorf("oracle %s: %w", b.name, err)
				return
			}
			b.want, b.noneCycles = want, none.Cycles
		}(&bodies[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wireResult is the part of a streamed result frame the benchmark checks
// and reads.
type wireResult struct {
	Reason       string          `json:"reason"`
	Cycles       uint64          `json:"cycles"`
	Detections   int             `json:"detections"`
	ShellSpawned bool            `json:"shell_spawned"`
	Error        string          `json:"error"`
	Stats        *splitmem.Stats `json:"stats"`
}

// checkResult reports a service result that differs from the oracle.
func checkResult(name string, got wireResult, want oracleResult) error {
	if got.Reason != want.Reason || got.Cycles != want.Cycles ||
		got.Detections != want.Detections || got.ShellSpawned != want.ShellSpawned {
		return fmt.Errorf("%s: got reason=%s cycles=%d detections=%d shell=%v error=%q, oracle reason=%s cycles=%d detections=%d shell=%v",
			name, got.Reason, got.Cycles, got.Detections, got.ShellSpawned, got.Error,
			want.Reason, want.Cycles, want.Detections, want.ShellSpawned)
	}
	return nil
}

// loadClient submits jobs to one cluster through its gateway over HTTP.
type loadClient struct {
	url  string
	http *http.Client
}

// submit runs one streamed job and returns its result and the client's
// interval: from building the request to decoding the result frame.
func (d *loadClient) submit(ctx context.Context, b *jobBody, trace string) (wireResult, interval, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/jobs?stream=1", bytes.NewReader(b.body))
	if err != nil {
		return wireResult{}, interval{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(hostspan.TraceHeader, trace)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return wireResult{}, interval{}, fmt.Errorf("%s: %w", b.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return wireResult{}, interval{}, fmt.Errorf("%s: refused: HTTP %d %s", b.name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	accepted := false
	for {
		var f struct {
			Type   string      `json:"type"`
			Result *wireResult `json:"result"`
		}
		if err := dec.Decode(&f); err != nil {
			if accepted {
				return wireResult{}, interval{}, fmt.Errorf("%s: acknowledged job lost: stream ended: %v", b.name, err)
			}
			return wireResult{}, interval{}, fmt.Errorf("%s: stream ended before acknowledgement: %v", b.name, err)
		}
		switch f.Type {
		case "accepted":
			accepted = true
		case "result":
			iv := interval{t0, time.Now()}
			if f.Result == nil {
				return wireResult{}, iv, fmt.Errorf("%s: empty result frame", b.name)
			}
			io.Copy(io.Discard, resp.Body) // let the connection be reused
			return *f.Result, iv, nil
		}
	}
}

// traceSpans fetches a job's merged trace from the gateway, waiting until
// the gateway's root span has closed (it ends just after the result frame
// is written, so the client can get there first).
func (d *loadClient) traceSpans(ctx context.Context, trace string) ([]span, error) {
	for attempt := 0; ; attempt++ {
		spans, err := d.fetchTrace(ctx, trace)
		if err != nil {
			return nil, err
		}
		if traceClosed(spans) {
			return spans, nil
		}
		if attempt == 500 {
			return nil, fmt.Errorf("trace %s: spans still open after %d fetches", trace, attempt)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *loadClient) fetchTrace(ctx context.Context, trace string) ([]span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/traces/"+trace, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", trace, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: HTTP %d", trace, resp.StatusCode)
	}
	var doc struct {
		Spans []struct {
			span
			Instant bool `json:"instant"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace %s: %w", trace, err)
	}
	var spans []span
	for _, s := range doc.Spans {
		if !s.Instant {
			spans = append(spans, s.span)
		}
	}
	return spans, nil
}

// traceClosed reports whether a trace has its gateway root span and every
// span in it has ended.
func traceClosed(spans []span) bool {
	root := false
	for _, s := range spans {
		if s.End.IsZero() {
			return false
		}
		root = root || s.Name == "gw.job"
	}
	return root
}

// scrapeMetrics reads the gateway's federated /metrics and sums each
// metric over its label sets (replicas, reasons).
func (d *loadClient) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return sumMetrics(string(body)), nil
}

// sumMetrics parses a Prometheus text exposition into per-name sums.
func sumMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.IndexAny(line, "{ ")
		if i < 0 {
			continue
		}
		name, rest := line[:i], line[i:]
		if rest[0] == '{' {
			j := strings.LastIndexByte(rest, '}')
			if j < 0 {
				continue
			}
			rest = rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// jobRecord is one verified job.
type jobRecord struct {
	iv    interval
	res   wireResult
	spans []span
}

// detPhase is one timed stretch of closed-loop load.
type detPhase struct {
	jobs           []jobRecord
	checked        counter
	ticks0, ticks1 cpuTicks
	windows        []window
}

// runClient is one closed-loop client: it submits its next job only once
// the previous one's verdict is in, walking the bodies in order from
// position n until more reports false. A traced client mints a trace ID per
// job and fetches the job's spans after its verdict, outside its interval.
func (d *loadClient) runClient(ctx context.Context, spec *detonateSpec, c int, order []int, n int, traced bool, more func(n int) bool) detPhase {
	var ph detPhase
	for ; more(n) && ctx.Err() == nil; n++ {
		b := &spec.bodies[order[n%len(order)]]
		trace := ""
		if traced {
			trace = fmt.Sprintf("pb%02x%012x", c, n)
		}
		res, iv, err := d.submit(ctx, b, trace)
		if err == nil {
			err = checkResult(b.name, res, b.want)
		}
		rec := jobRecord{iv: iv, res: res}
		if err == nil && traced {
			rec.spans, err = d.traceSpans(ctx, trace)
		}
		if ph.checked.check(err) {
			ph.jobs = append(ph.jobs, rec)
		}
	}
	return ph
}

// clientOrder is client c's seed-derived walk through the bodies.
func clientOrder(spec *detonateSpec, seed int64, c int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c))).Perm(len(spec.bodies))
}

// merge adds another stretch's jobs and checks.
func (ph *detPhase) merge(o *detPhase) {
	ph.jobs = append(ph.jobs, o.jobs...)
	ph.checked.merge(&o.checked)
}

// load runs `clients` untraced closed-loop clients for dur.
func (d *loadClient) load(ctx context.Context, spec *detonateSpec, clients int, seed int64, dur time.Duration) (*detPhase, error) {
	ph := &detPhase{ticks0: readCPUTicks()}
	deadline := time.Now().Add(dur)
	smp := startSampler(deadline)
	more := func(int) bool { return time.Now().Before(deadline) }
	per := make([]detPhase, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = d.runClient(ctx, spec, c, clientOrder(spec, seed, c), 0, false, more)
		}(c)
	}
	wg.Wait()
	ph.ticks1 = readCPUTicks()
	ph.windows = smp.finish()
	for i := range per {
		ph.merge(&per[i])
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run deadline passed")
	}
	if len(ph.jobs) == 0 {
		return nil, fmt.Errorf("no job completed: %v", ph.checked.errs)
	}
	return ph, nil
}

// tracedRun is what --trace 1 measured on a cluster.
type tracedRun struct {
	plain, traced  detPhase
	plainWall      time.Duration // summed length of the untraced blocks
	plainAlloc     uint64        // Go heap bytes allocated during the untraced blocks
	ticks0, ticks1 cpuTicks
	m0, m1         map[string]float64 // gateway /metrics before and after
}

// tracedLoad runs `clients` closed-loop clients for dur in blocks that
// alternate untraced and traced. In each block every client runs one lap of
// its body order, at least two jobs, and all clients meet at a barrier
// before the next block. Untraced and traced jobs thus see the same bodies
// under the same host speed, and the heap allocation and wall time read
// around the untraced blocks hold no tracing work.
func (d *loadClient) tracedLoad(ctx context.Context, spec *detonateSpec, clients int, seed int64, dur time.Duration) (*tracedRun, error) {
	r := &tracedRun{}
	var err error
	if r.m0, err = d.scrapeMetrics(ctx); err != nil {
		return nil, err
	}
	orders := make([][]int, clients)
	for c := range orders {
		orders[c] = clientOrder(spec, seed, c)
	}
	lap := max(len(spec.bodies), 2)
	block := func(n int, traced bool) *detPhase {
		per := make([]detPhase, clients)
		more := func(i int) bool { return i < n+lap }
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				per[c] = d.runClient(ctx, spec, c, orders[c], n, traced, more)
			}(c)
		}
		wg.Wait()
		var ph detPhase
		for i := range per {
			ph.merge(&per[i])
		}
		return &ph
	}
	from := time.Now()
	r.ticks0 = readCPUTicks()
	for n := 0; time.Since(from) < dur && ctx.Err() == nil; n += 2 * lap {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		plain := block(n, false)
		r.plainWall += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		r.plainAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		r.plain.merge(plain)
		r.traced.merge(block(n+lap, true))
	}
	r.ticks1 = readCPUTicks()
	if r.m1, err = d.scrapeMetrics(ctx); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run deadline passed")
	}
	if len(r.plain.jobs) == 0 || len(r.traced.jobs) == 0 {
		return nil, fmt.Errorf("no job completed: %v %v", r.plain.checked.errs, r.traced.checked.errs)
	}
	return r, nil
}

func (ph *detPhase) latencies() []float64 {
	var xs []float64
	for _, j := range ph.jobs {
		xs = append(xs, ms(j.iv.end.Sub(j.iv.start)))
	}
	return xs
}

func (ph *detPhase) cycles() uint64 {
	var c uint64
	for _, j := range ph.jobs {
		c += j.res.Cycles
	}
	return c
}

// bootCluster starts a gateway over two replicas and warms it by running
// every distinct body once, `clients` at a time.
func bootCluster(ctx context.Context, spec *detonateSpec, clients int, checked *counter) (*cluster.Harness, *loadClient, error) {
	h, err := cluster.NewHarnessFunc(2, func(int) serve.Config { return spec.replica }, cluster.Config{})
	if err != nil {
		return nil, nil, err
	}
	d := &loadClient{url: h.URL(), http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan *jobBody)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				res, _, err := d.submit(ctx, b, "")
				if err == nil {
					err = checkResult(b.name, res, b.want)
				}
				mu.Lock()
				checked.check(err)
				mu.Unlock()
			}
		}()
	}
	for i := range spec.bodies {
		next <- &spec.bodies[i]
	}
	close(next)
	wg.Wait()
	return h, d, nil
}

func (d *loadClient) close(h *cluster.Harness) {
	d.http.CloseIdleConnections()
	h.Close()
}

func runDetonate(spec detonateSpec, check func(oracleResult) error, seed int64, seconds int, trace bool) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+setupAllowance)
	defer cancel()
	if err := oracles(spec.bodies, check); err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()

	var checked counter
	var setups []float64
	var h *cluster.Harness
	var d *loadClient
	for i := 0; i < setupBoots; i++ {
		if h != nil {
			d.close(h)
		}
		t0 := time.Now()
		var err error
		if h, d, err = bootCluster(ctx, &spec, clients, &checked); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close(h)

	out := newOutcome()
	out.e2e["setup_s"] = median(setups)
	var norms []float64
	for _, b := range spec.bodies {
		norms = append(norms, float64(b.noneCycles)/float64(b.want.Cycles))
	}
	out.e2e["split_norm_perf"] = geomean(norms)

	total := time.Duration(seconds) * time.Second
	if !trace {
		ph, err := d.load(ctx, &spec, clients, seed, total)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		checked.merge(&ph.checked)
		var ivs []interval
		var cycles []float64
		for _, j := range ph.jobs {
			ivs = append(ivs, j.iv)
			cycles = append(cycles, float64(j.res.Cycles))
		}
		if err := phaseMetrics(out, spec.name, ivs, cycles, nil, ph.windows, spec.tailP); err != nil {
			return nil, err
		}
		out.steal = stealShare(ph.ticks0, ph.ticks1)
	} else {
		r, err := d.tracedLoad(ctx, &spec, clients, seed, total)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		checked.merge(&r.plain.checked)
		checked.merge(&r.traced.checked)
		detLayers(out, r)
		out.steal = stealShare(r.ticks0, r.ticks1)
		out.layer["host.steal_share"] = out.steal
	}
	out.attempted, out.failed, out.errs = checked.n, checked.failed, checked.errs
	return out, nil
}

// detLayers derives the per-layer metrics of a traced run: span self times
// of the traced jobs, service counters scraped from /metrics and every
// job's machine stats, and heap allocation and simulated-cycle rate of the
// untraced jobs.
func detLayers(out *outcome, r *tracedRun) {
	var all detPhase
	all.merge(&r.plain)
	all.merge(&r.traced)
	nAll := float64(len(all.jobs))
	var st splitmem.Stats
	for _, j := range all.jobs {
		if s := j.res.Stats; s != nil {
			st.Instructions += s.Instructions
			st.SuperblockEntered += s.SuperblockEntered
			st.SuperblockSideExits += s.SuperblockSideExits
			st.DecodeHits += s.DecodeHits
			st.DecodeMisses += s.DecodeMisses
			st.DebugTraps += s.DebugTraps
			st.PageFaults += s.PageFaults
			st.CtxSwitches += s.CtxSwitches
			st.MemCowCopies += s.MemCowCopies
			st.ITLBHits += s.ITLBHits
			st.ITLBMisses += s.ITLBMisses
			st.DTLBHits += s.DTLBHits
			st.DTLBMisses += s.DTLBMisses
		}
	}
	var sum jobBreakdown
	for _, j := range r.traced.jobs {
		sum.add(breakdown(j.iv.start, j.iv.end, j.spans))
	}
	n := float64(len(r.traced.jobs))
	perJob := func(d time.Duration) float64 { return ms(d) / n }
	L := out.layer
	L["client.job_ms"] = perJob(sum.client)
	L["cluster.front_ms"] = perJob(sum.front)
	L["cluster.gw_self_ms"] = perJob(sum.gwSelf)
	L["cluster.relay_ms"] = perJob(sum.relay)
	L["serve.admit_unspanned_ms"] = perJob(sum.admitUnspanned)
	L["serve.enqueue_wait_ms"] = perJob(sum.enqueue)
	L["serve.run_self_ms"] = perJob(sum.runSelf)
	L["serve.slice_ms"] = perJob(sum.slice)
	L["serve.checkpoint_ms"] = perJob(sum.checkpoint)
	L["unattributed_share"] = float64(sum.unattributed()) / float64(sum.client)

	var parts time.Duration
	for _, p := range sum.parts() {
		parts += p
	}
	out.notef("client.job_ms %.4f = front %.4f + gw_self %.4f + admit_unspanned %.4f + enqueue_wait %.4f + run_self %.4f + slice %.4f + checkpoint %.4f (residual %.6f ms); unattributed (front + admit_unspanned) %.1f%%",
		perJob(sum.client), perJob(sum.front), perJob(sum.gwSelf), perJob(sum.admitUnspanned),
		perJob(sum.enqueue), perJob(sum.runSelf), perJob(sum.slice), perJob(sum.checkpoint),
		perJob(sum.client-parts), 100*L["unattributed_share"])

	delta := func(name string) float64 { return r.m1[name] - r.m0[name] }
	hits, misses := delta("splitmem_serve_warm_hits_total"), delta("splitmem_serve_warm_misses_total")
	L["serve.warm_hit_ratio"] = ratio(hits, hits+misses)
	L["serve.forks_per_job"] = delta("splitmem_serve_forks_total") / nAll
	L["serve.rejected_429_per_job"] = delta("splitmem_serve_jobs_rejected_total") / nAll
	L["cluster.retries_per_job"] = delta("splitmem_gateway_retries_total") / nAll
	L["serve.checkpoints_per_job"] = delta("splitmem_serve_checkpoints_total") / nAll

	L["cpu.instr_per_job"] = float64(st.Instructions) / nAll
	L["cpu.sb_entered_per_job"] = float64(st.SuperblockEntered) / nAll
	L["cpu.sb_side_exit_ratio"] = ratio(float64(st.SuperblockSideExits), float64(st.SuperblockEntered))
	L["cpu.decode_hit_ratio"] = ratio(float64(st.DecodeHits), float64(st.DecodeHits+st.DecodeMisses))
	L["core.debug_traps_per_job"] = float64(st.DebugTraps) / nAll
	L["kernel.page_faults_per_job"] = float64(st.PageFaults) / nAll
	L["kernel.ctx_switches_per_job"] = float64(st.CtxSwitches) / nAll
	L["mem.cow_copies_per_job"] = float64(st.MemCowCopies) / nAll
	L["tlb.itlb_miss_ratio"] = ratio(float64(st.ITLBMisses), float64(st.ITLBHits+st.ITLBMisses))
	L["tlb.dtlb_miss_ratio"] = ratio(float64(st.DTLBMisses), float64(st.DTLBHits+st.DTLBMisses))

	L["runtime.alloc_mib_per_job"] = float64(r.plainAlloc) / (1 << 20) / float64(len(r.plain.jobs))
	L["sim_mcps_wall"] = float64(r.plain.cycles()) / 1e6 / r.plainWall.Seconds()
	L["trace.overhead_share"] = median(r.traced.latencies())/median(r.plain.latencies()) - 1
	out.notef("traced blocks: %d jobs, untraced blocks: %d jobs", len(r.traced.jobs), len(r.plain.jobs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
