package psmpi

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"clusterbooster/internal/vclock"
)

// Tracing support — the role of the DEEP performance-analysis tooling in the
// software stack (§I of the paper lists "performance analysis tools" among
// the DEEP developments). When enabled on the runtime, every rank records
// its compute and communication spans in virtual time; ChromeTrace exports
// them in the Chrome trace-event JSON format (load in a trace viewer:
// processes are nodes, threads are ranks).

// TraceEvent is one recorded span of a rank's activity.
type TraceEvent struct {
	Rank  int
	Node  string
	Name  string // e.g. "compute/particle", "send", "recv", "collective"
	Start vclock.Time
	End   vclock.Time
}

// traceSink collects events from all ranks of a runtime.
type traceSink struct {
	mu     sync.Mutex
	events []TraceEvent
}

// EnableTracing switches span recording on for all subsequently launched
// jobs of this runtime.
func (rt *Runtime) EnableTracing() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.trace == nil {
		rt.trace = &traceSink{}
	}
}

// TraceEvents returns a copy of the recorded events, ordered by start time,
// then rank, end, name and node: a total order, so the result does not
// depend on the order in which spans were recorded.
func (rt *Runtime) TraceEvents() []TraceEvent {
	rt.mu.Lock()
	sink := rt.trace
	rt.mu.Unlock()
	if sink == nil {
		return nil
	}
	sink.mu.Lock()
	out := append([]TraceEvent(nil), sink.events...)
	sink.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		switch {
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.Rank != b.Rank:
			return a.Rank < b.Rank
		case a.End != b.End:
			return a.End < b.End
		case a.Name != b.Name:
			return a.Name < b.Name
		}
		return a.Node < b.Node
	})
	return out
}

// record appends one span if tracing is enabled.
func (p *Proc) record(name string, start vclock.Time) {
	sink := p.rt.trace
	if sink == nil {
		return
	}
	end := p.clock.Now()
	if end <= start {
		return
	}
	sink.mu.Lock()
	sink.events = append(sink.events, TraceEvent{
		Rank: p.rank, Node: p.node.Name(), Name: name, Start: start, End: end,
	})
	sink.mu.Unlock()
}

// chromeEvent is the Chrome trace-event wire format ("X" complete events).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs
	Dur  float64 `json:"dur"` // µs
	Pid  string  `json:"pid"`
	Tid  int     `json:"tid"`
}

// ChromeTrace renders the recorded events as Chrome trace JSON.
func (rt *Runtime) ChromeTrace() ([]byte, error) {
	events := rt.TraceEvents()
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		cat := "comm"
		if len(e.Name) >= 7 && e.Name[:7] == "compute" {
			cat = "compute"
		}
		out = append(out, chromeEvent{
			Name: e.Name, Cat: cat, Ph: "X",
			Ts:  e.Start.Micros(),
			Dur: (e.End - e.Start).Micros(),
			Pid: e.Node, Tid: e.Rank,
		})
	}
	return json.MarshalIndent(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out}, "", " ")
}

// traceName builds a compute span name from a kernel class.
func traceComputeName(class fmt.Stringer) string { return "compute/" + class.String() }
