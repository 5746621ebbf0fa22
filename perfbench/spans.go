package main

import (
	"sort"
	"time"
)

// spanDepth ranks the host spans a detonation job leaves, outermost first.
// Each instant of a job's client interval is attributed to the deepest span
// covering it, which makes every span's share its self time: its duration
// minus the part its child spans cover. Span names not listed here (restore,
// instants) are ignored, so their time stays with the span that encloses
// them.
var spanDepth = map[string]int{
	"gw.job":           1,
	"gw.relay":         2,
	"rep.enqueue-wait": 3,
	"rep.run":          3,
	"rep.run-slice":    4,
	"rep.checkpoint":   4,
}

// uncovered is the attribution key for client time no program span covers.
const uncovered = ""

// span is one finished host span, as read from GET /v1/traces/{id}.
type span struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// attribute partitions the client interval [from, to) among spans by the
// deepest-span rule above. The returned durations, keyed by span name (and
// uncovered), sum exactly to to-from.
func attribute(from, to time.Time, spans []span) map[string]time.Duration {
	cuts := []time.Time{from, to}
	var ranked []span
	for _, s := range spans {
		if spanDepth[s.Name] == 0 || !s.End.After(s.Start) {
			continue
		}
		ranked = append(ranked, s)
		for _, t := range []time.Time{s.Start, s.End} {
			if t.After(from) && t.Before(to) {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })

	out := map[string]time.Duration{}
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if !b.After(a) {
			continue
		}
		owner, depth := uncovered, 0
		for _, s := range ranked {
			if d := spanDepth[s.Name]; d > depth && !s.Start.After(a) && !s.End.Before(b) {
				owner, depth = s.Name, d
			}
		}
		out[owner] += b.Sub(a)
	}
	return out
}

// jobBreakdown is the per-layer split of one job's client time, in the
// layer vocabulary the benchmark reports.
type jobBreakdown struct {
	client, front, gwSelf, relay, admitUnspanned time.Duration
	enqueue, runSelf, slice, checkpoint          time.Duration
}

func breakdown(from, to time.Time, spans []span) jobBreakdown {
	// Span times arrive as wall-clock readings; drop the client's monotonic
	// readings so every duration below is measured on the same clock.
	from, to = from.Round(0), to.Round(0)
	a := attribute(from, to, spans)
	b := jobBreakdown{
		client:         to.Sub(from),
		front:          a[uncovered],
		gwSelf:         a["gw.job"],
		admitUnspanned: a["gw.relay"],
		enqueue:        a["rep.enqueue-wait"],
		runSelf:        a["rep.run"],
		slice:          a["rep.run-slice"],
		checkpoint:     a["rep.checkpoint"],
	}
	b.relay = b.admitUnspanned + b.enqueue + b.runSelf + b.slice + b.checkpoint
	return b
}

// unattributed is the client time no span names a phase for: the client and
// gateway HTTP hop outside gw.job, and the relay time before, between and
// after the replica's spans.
func (b jobBreakdown) unattributed() time.Duration { return b.front + b.admitUnspanned }

// parts are the disjoint components that sum to client.
func (b jobBreakdown) parts() []time.Duration {
	return []time.Duration{b.front, b.gwSelf, b.admitUnspanned, b.enqueue, b.runSelf, b.slice, b.checkpoint}
}

func (b *jobBreakdown) add(o jobBreakdown) {
	b.client += o.client
	b.front += o.front
	b.gwSelf += o.gwSelf
	b.relay += o.relay
	b.admitUnspanned += o.admitUnspanned
	b.enqueue += o.enqueue
	b.runSelf += o.runSelf
	b.slice += o.slice
	b.checkpoint += o.checkpoint
}
