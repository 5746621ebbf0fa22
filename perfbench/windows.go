package main

import (
	"fmt"
	"sort"
	"time"
)

// sampleEvery is the resident-set sampling period.
const sampleEvery = 5 * time.Millisecond

// calmSteal is the steal share at or below which a window always counts as
// calm.
const calmSteal = 0.02

// window is one second of a measured phase.
type window struct {
	start, end time.Time
	steal      float64       // share of all CPU ticks the hypervisor gave to other guests
	cpu        time.Duration // process user+system CPU time
	peakRSS    float64       // MiB, sampled every sampleEvery
}

// sampler cuts a phase into one-second windows and records each one's CPU
// steal, process CPU time and peak resident set.
type sampler struct {
	until      time.Time
	stop, done chan struct{}
	windows    []window
}

// startSampler samples until the given time or until finish, whichever
// comes first. A window cut short by either is dropped, unless it would be
// the only one.
func startSampler(until time.Time) *sampler {
	s := &sampler{until: until, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	w := window{start: time.Now()}
	ticks, cpu := readCPUTicks(), cpuTime()
	closeWindow := func(now time.Time) {
		t, c := readCPUTicks(), cpuTime()
		w.end, w.steal, w.cpu = now, stealShare(ticks, t), c-cpu
		s.windows = append(s.windows, w)
		w, ticks, cpu = window{start: now}, t, c
	}
	for {
		select {
		case <-s.stop:
			if len(s.windows) == 0 {
				closeWindow(time.Now())
			}
			return
		case now := <-tick.C:
			if !now.Before(s.until) {
				if len(s.windows) == 0 {
					closeWindow(now)
				}
				<-s.stop
				return
			}
			w.peakRSS = max(w.peakRSS, rssMiB())
			if now.Sub(w.start) >= time.Second {
				closeWindow(now)
			}
		}
	}
}

// finish stops sampling and returns the windows.
func (s *sampler) finish() []window {
	close(s.stop)
	<-s.done
	return s.windows
}

// calmOrder ranks steal shares from least to most and returns the ranked
// indices and how many of them lead as calm: those at most calmSteal or at
// most the median share. A run without steal keeps everything; bursts of
// steal that cover less than half of a run drop out of its figures.
func calmOrder(steals []float64) (order []int, n int) {
	order = make([]int, len(steals))
	for i := range order {
		order[i] = i
	}
	if len(order) == 0 {
		return order, 0
	}
	sort.SliceStable(order, func(a, b int) bool { return steals[order[a]] < steals[order[b]] })
	limit := max(calmSteal, steals[order[(len(order)-1)/2]])
	for n < len(order) && steals[order[n]] <= limit {
		n++
	}
	return order, n
}

// rankByCalm returns xs ranked from least to most steal, given each one's
// steal share, and how many of them lead as calm; see calmOrder.
func rankByCalm(xs, steals []float64) ([]float64, int) {
	order, n := calmOrder(steals)
	ranked := make([]float64, len(xs))
	for i, k := range order {
		ranked[i] = xs[k]
	}
	return ranked, n
}

// rankWindows returns ws from least to most stolen and how many of them
// lead as calm; see calmOrder.
func rankWindows(ws []window) ([]window, int) {
	steals := make([]float64, len(ws))
	for i, w := range ws {
		steals[i] = w.steal
	}
	order, n := calmOrder(steals)
	ranked := make([]window, len(ws))
	for i, k := range order {
		ranked[i] = ws[k]
	}
	return ranked, n
}

// calm returns the windows the end-to-end metrics are computed over.
func calm(ws []window) []window {
	ranked, n := rankWindows(ws)
	return ranked[:n]
}

// widenForTail returns pick(k) for the smallest k from n up to total whose
// samples leave at least minBeyond beyond the tailP percentile, or
// pick(total) when none does.
func widenForTail(pick func(k int) []float64, n, total int, tailP float64) []float64 {
	for k := n; ; k++ {
		lat := pick(k)
		if _, beyond := percentile(lat, tailP); beyond >= minBeyond || k >= total {
			return lat
		}
	}
}

// latencies returns the times, in ms, of the jobs that ended in one of ws.
func latencies(jobs []interval, ws []window) []float64 {
	var out []float64
	for _, j := range jobs {
		for _, w := range ws {
			if !j.end.Before(w.start) && j.end.Before(w.end) {
				out = append(out, ms(j.end.Sub(j.start)))
				break
			}
		}
	}
	return out
}

// credit spreads each job over the windows its interval overlaps, in
// proportion to the overlap, and returns each window's total weight (1 per
// job when weights is nil).
func credit(jobs []interval, weights []float64, ws []window) []float64 {
	out := make([]float64, len(ws))
	for j, iv := range jobs {
		d := iv.end.Sub(iv.start)
		if d <= 0 {
			continue
		}
		wt := 1.0
		if weights != nil {
			wt = weights[j]
		}
		for i, w := range ws {
			if ov := overlap(iv.start, iv.end, w.start, w.end); ov > 0 {
				out[i] += wt * float64(ov) / float64(d)
			}
		}
	}
	return out
}

// phaseMetrics sets the end-to-end metrics a phase measures from its jobs
// (sim-ctxsw: passes), each job's simulated cycles and the phase's windows,
// all over the calm windows only:
//   - jobs_per_s is the median window rate;
//   - job_p50_ms and job_tail_ms cover the jobs that ended in a calm window
//     or, when jobSteal gives each job's own steal share (jobs that run one
//     at a time), the calm jobs; when those leave fewer than minBeyond
//     beyond the tail, the next calmest windows or jobs join one at a time
//     until they do;
//   - cpu_ms_per_job and sim_mcps_cpu divide the windows' CPU time by the
//     jobs and cycles credited to them;
//   - peak_rss_mib is the median window peak.
func phaseMetrics(out *outcome, name string, jobs []interval, cycles, jobSteal []float64, ws []window, tailP float64) error {
	ranked, ncalm := rankWindows(ws)
	cw := ranked[:ncalm]
	done, sim := credit(jobs, nil, cw), credit(jobs, cycles, cw)
	var rates, rss []float64
	var cpu time.Duration
	var n, cyc float64
	for i, w := range cw {
		rates = append(rates, done[i]/w.end.Sub(w.start).Seconds())
		rss = append(rss, w.peakRSS)
		cpu += w.cpu
		n += done[i]
		cyc += sim[i]
	}
	var lat []float64
	if jobSteal != nil {
		times := make([]float64, len(jobs))
		for i, j := range jobs {
			times[i] = ms(j.end.Sub(j.start))
		}
		ranked, n := rankByCalm(times, jobSteal)
		lat = widenForTail(func(k int) []float64 { return ranked[:k] }, n, len(jobs), tailP)
	} else {
		lat = widenForTail(func(k int) []float64 { return latencies(jobs, ranked[:k]) }, ncalm, len(ws), tailP)
	}
	tl, err := tail(lat, tailP)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	out.e2e["jobs_per_s"] = median(rates)
	out.e2e["job_p50_ms"] = median(lat)
	out.e2e["job_tail_ms"] = tl
	out.e2e["cpu_ms_per_job"] = ms(cpu) / n
	out.e2e["sim_mcps_cpu"] = cyc / 1e6 / cpu.Seconds()
	out.e2e["peak_rss_mib"] = median(rss)
	out.notef("%s: %d jobs, %d of %d one-second windows calm, latency over %d jobs (p%.0f has %d beyond)",
		name, len(jobs), len(cw), len(ws), len(lat), tailP*100, beyondCount(lat, tailP))
	return nil
}
