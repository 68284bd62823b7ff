package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// span is one timed call into a layer of the system. Start and End are
// host seconds since the recorder was created; Parent is 0 for a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent,omitempty"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// recorder keeps the spans of a traced run in memory. Every call it
// brackets happens on the benchmark's own goroutine, so the open spans
// form a stack. A nil recorder records nothing.
type recorder struct {
	t0       time.Time
	workload string // set by the run loop
	rep      int    // current repeat; numbered across workloads
	spans    []span
	open     []int // indices into spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextRep starts a new repeat number for the spans that follow.
func (r *recorder) nextRep() int {
	r.rep++
	return r.rep
}

func (r *recorder) begin(name, layer string) {
	if r == nil {
		return
	}
	s := span{ID: len(r.spans) + 1, Name: name, Layer: layer, Workload: r.workload,
		Rep: r.rep, Start: time.Since(r.t0).Seconds()}
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, s)
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open)
	r.spans[r.open[n-1]].End = time.Since(r.t0).Seconds()
	r.open = r.open[:n-1]
}

// selfTimes returns, for each layer, the summed self time of the rep's
// spans: a span's duration minus the time its children cover. Children
// run one after another on one goroutine, so they never overlap.
func (r *recorder) selfTimes(rep int) map[string]float64 {
	self := map[string]float64{}
	byID := map[int]int{}
	for i, s := range r.spans {
		if s.Rep != rep {
			continue
		}
		byID[s.ID] = i
		self[s.Layer] += s.End - s.Start
	}
	for _, s := range r.spans {
		if s.Rep != rep || s.Parent == 0 {
			continue
		}
		self[r.spans[byID[s.Parent]].Layer] -= s.End - s.Start
	}
	return self
}

// write saves every span as a JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// meter times the calls of one rep: it records a span around each when
// tracing, and adds the host wall and CPU time of calls that run the
// simulator to simS and simCPU.
type meter struct {
	rec          *recorder
	simS, simCPU float64
}

// call runs fn inside a span and returns its wall time; sim marks a call
// that runs the simulator.
func (m *meter) call(name, layer string, sim bool, fn func()) float64 {
	m.rec.begin(name, layer)
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	d := time.Since(t0).Seconds()
	if sim {
		m.simS += d
		m.simCPU += cpuSeconds() - c0
	}
	m.rec.end()
	return d
}

// cpuSeconds returns the CPU time the process has used, user plus
// system. Unlike wall time it leaves out time the host's hypervisor
// gave to other machines (steal), which on a shared host moves wall
// times by tens of per cent from minute to minute.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
