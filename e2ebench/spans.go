package main

import "time"

// span is one timed call into a layer. Parent is the index of the span
// that was open when it began (-1 at top level); Job groups the spans of
// one request. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The traced replays run
// every job on one goroutine with a serial pool, so spans nest strictly and
// need no lock. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	spans []span
	open  int // index of the innermost open span, -1 for none
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), open: -1} }

func (r *recorder) begin(name, job string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: r.open, Start: time.Since(r.t0).Nanoseconds()})
	r.open = len(r.spans) - 1
	return r.open
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = time.Since(r.t0).Nanoseconds()
	r.open = r.spans[i].Parent
}

// do runs fn inside a span.
func (r *recorder) do(name, job string, fn func() error) error {
	i := r.begin(name, job)
	defer r.end(i)
	return fn()
}

// selfSeconds sums each layer's self time — a span's duration minus that
// of its children — by span name.
func (r *recorder) selfSeconds() map[string]float64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// jobSeconds is the time spent inside jobs: the summed duration of the
// top-level spans that belong to a job.
func (r *recorder) jobSeconds() float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Parent < 0 && s.Job != "" {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}
