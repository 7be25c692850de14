package main

// Tracing. A traced run records spans from the benchmark's own code,
// around each call into a layer's public API; spans stay in memory
// until the run ends and per-layer figures are computed from them.

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call. parent is the index of the span that caused
// it (-1 for a root); spans of one job share job.
type span struct {
	name       string
	start, end time.Time
	parent     int
	job        int
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// runs pass nil and pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, job int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, job: job})
	return len(t.spans) - 1
}

// open starts a span now; finish ends it.
func (t *tracer) open(name string, parent, job int) int {
	return t.add(name, time.Now(), time.Time{}, parent, job)
}

// restart re-stamps span i's start, for a span whose index had to
// exist before its timed section began.
func (t *tracer) restart(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].start = time.Now()
}

func (t *tracer) finish(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = time.Now()
}

// job records one service job's client-side spans: the job as a root,
// and under it submit (POST→202), queue wait (202→first running
// frame), run (running→terminal frame) and result (GET result).
func (t *tracer) job(id int, jt jobTimes) {
	if t == nil || jt.resultAt.IsZero() {
		return
	}
	root := t.add("job", jt.submit, jt.resultAt, -1, id)
	t.add("server.submit", jt.submit, jt.accepted, root, id)
	t.add("server.queue_wait", jt.accepted, jt.running, root, id)
	t.add("server.run", jt.running, jt.terminal, root, id)
	t.add("server.result", jt.terminal, jt.resultAt, root, id)
}

// selfTime is span i's duration minus the part of its interval its
// children cover (overlapping children count once).
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ a, b time.Time }
	var kids []iv
	for _, s := range spans {
		if s.parent != i {
			continue
		}
		a, b := s.start, s.end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a.Before(kids[y].a) })
	var covered time.Duration
	var cur iv
	for k, c := range kids {
		switch {
		case k == 0:
			cur = c
		case !c.a.After(cur.b):
			if c.b.After(cur.b) {
				cur.b = c.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = c
		}
	}
	if len(kids) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return p.end.Sub(p.start) - covered
}

// durationsMS returns the durations of every span named name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end.Sub(s.start))/1e6)
		}
	}
	return out
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// selfTotal sums the self times of every span named name.
func (t *tracer) selfTotal(name string) time.Duration {
	var d time.Duration
	for i, s := range t.spans {
		if s.name == name {
			d += selfTime(t.spans, i)
		}
	}
	return d
}
