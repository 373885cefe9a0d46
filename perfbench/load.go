package main

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one generated transaction and what became of it.
type request struct {
	seq     int
	id      string
	votes   []bool
	dissent bool
	keys    []string
	cross   bool

	// due is when the request was meant to be sent: its start in a
	// closed loop, its scheduled time in an open loop. Latency runs
	// from due to end.
	due, end time.Time
	state    string
}

func (r *request) latency() time.Duration { return r.end.Sub(r.due) }
func (r *request) decided() bool          { return r.state == "COMMIT" || r.state == "ABORT" }

// mix is a workload's input distribution; request i is derived from
// (seed, i) alone.
type mix struct {
	n          int // processors per group, the length of a vote vector
	dissentPct int
	crossPct   int
	pools      [][]string // per-shard keys; nil for an unsharded stack
}

func (m *mix) request(seed uint64, i int) *request {
	d := newDraw(seed, i)
	r := &request{seq: i, id: "r" + strconv.FormatUint(seed, 10) + "-" + strconv.Itoa(i)}
	r.votes = make([]bool, m.n)
	for p := range r.votes {
		r.votes[p] = true
	}
	if d.chance(m.dissentPct) {
		r.dissent = true
		r.votes[d.intn(m.n)] = false
	}
	if m.pools != nil {
		a := d.intn(len(m.pools))
		r.keys = []string{m.pools[a][d.intn(len(m.pools[a]))]}
		if d.chance(m.crossPct) {
			b := (a + 1 + d.intn(len(m.pools)-1)) % len(m.pools)
			r.keys = append(r.keys, m.pools[b][d.intn(len(m.pools[b]))])
			r.cross = true
		}
	}
	return r
}

// steps is how many equal steps the window is read in: the process CPU
// time is taken at every step boundary, and the end-to-end metrics are
// medians over slices made of whole steps.
const steps = 20

// window is the measured interval and the hooks run at its edges.
type window struct {
	warm, length   time.Duration
	onBegin, onEnd func()
	t0, t1         time.Time
	// cpu[i] is the process CPU time read at step boundary i.
	cpu []time.Duration
}

// boundary is the scheduled time of step boundary i.
func (w *window) boundary(i int) time.Time {
	return w.t0.Add(time.Duration(i) * w.length / steps)
}

// measure waits for t0, runs the begin hook, reads the CPU time at every
// step boundary and runs the end hook at the last one, t1.
func (w *window) measure() {
	time.Sleep(time.Until(w.t0))
	w.onBegin()
	w.cpu = append(w.cpu[:0], cpuTime())
	for i := 1; i <= steps; i++ {
		time.Sleep(time.Until(w.boundary(i)))
		w.cpu = append(w.cpu, cpuTime())
	}
	w.onEnd()
}

// closedLoop runs clients that each send their next request as soon as
// the previous one is answered, until the window closes. Requests are
// numbered from base. It returns every request sent, warm-up included.
func closedLoop(st *stack, m *mix, seed uint64, base, clients int, w *window) []*request {
	var next atomic.Int64
	next.Store(int64(base))
	var stop atomic.Bool
	per := make([][]*request, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				r := m.request(seed, int(next.Add(1)-1))
				r.due = time.Now()
				r.state = st.submit(context.Background(), r)
				r.end = time.Now()
				per[c] = append(per[c], r)
			}
		}(c)
	}
	w.t0 = time.Now().Add(w.warm)
	w.t1 = w.t0.Add(w.length)
	w.measure()
	stop.Store(true)
	wg.Wait()
	var all []*request
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all
}

// maxOutstanding bounds the open loop's concurrent requests; a request
// due while it is reached is refused and counts as failed.
const maxOutstanding = 8192

// openLoop sends requests numbered from base on a fixed schedule of
// rate per second, whether or not earlier ones were answered, each from
// its own goroutine. It returns every request and, for those due inside
// the window, how late the generator sent each.
func openLoop(st *stack, m *mix, seed uint64, base int, rate float64, w *window) ([]*request, []time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	w.t0 = start.Add(w.warm)
	w.t1 = w.t0.Add(w.length)

	var mu sync.Mutex
	var all []*request
	var late []time.Duration
	sem := make(chan struct{}, maxOutstanding)
	var inflight sync.WaitGroup
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(w.t1) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			r := m.request(seed, base+i)
			r.due = due
			sent := time.Now()
			if !due.Before(w.t0) {
				late = append(late, sent.Sub(due))
			}
			select {
			case sem <- struct{}{}:
			default:
				r.state, r.end = "REFUSED", sent
				mu.Lock()
				all = append(all, r)
				mu.Unlock()
				continue
			}
			inflight.Add(1)
			go func(r *request) {
				defer inflight.Done()
				r.state = st.submit(context.Background(), r)
				r.end = time.Now()
				<-sem
				mu.Lock()
				all = append(all, r)
				mu.Unlock()
			}(r)
		}
	}()
	w.measure()
	<-paced
	inflight.Wait()
	return all, late
}

// dueIn keeps the requests due inside [from, to).
func dueIn(rs []*request, from, to time.Time) []*request {
	var out []*request
	for _, r := range rs {
		if !r.due.Before(from) && r.due.Before(to) {
			out = append(out, r)
		}
	}
	return out
}

// answeredIn counts the decisions and commits answered inside [from, to).
func answeredIn(rs []*request, from, to time.Time) (decided, commits int) {
	for _, r := range rs {
		if r.decided() && !r.end.Before(from) && r.end.Before(to) {
			decided++
			if r.state == "COMMIT" {
				commits++
			}
		}
	}
	return decided, commits
}
