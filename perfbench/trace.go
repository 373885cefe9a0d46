package main

import (
	"bufio"
	"bytes"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// The traced run builds the same stack as the untraced one, with the
// benchmark's own wrappers around the interfaces the stack already
// accepts (http.Handler, transport.Transport, wal.FS). Each wrapper times
// every call made through it; samples taken between markBegin and markEnd
// are the measured window's.

// maxSamples caps one recorder's memory (8 bytes a sample).
const maxSamples = 1 << 22

// samples records call durations; begin and end mark the measured window.
type samples struct {
	mu         sync.Mutex
	d          []time.Duration
	begin, end int
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	if len(s.d) < maxSamples {
		s.d = append(s.d, d)
	}
	s.mu.Unlock()
}

func (s *samples) markBegin() { s.mu.Lock(); s.begin = len(s.d); s.mu.Unlock() }
func (s *samples) markEnd()   { s.mu.Lock(); s.end = len(s.d); s.mu.Unlock() }

// window returns the window's samples in the given unit.
func (s *samples) window(unit time.Duration) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, 0, s.end-s.begin)
	for _, d := range s.d[s.begin:s.end] {
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// seqHeader carries the client's request index, so a handler duration
// can be matched with the client-side round trip of the same request.
const seqHeader = "X-Perfbench-Seq"

// timedHandler times every ServeHTTP call of the commit handler, keyed
// by the client's request index.
type timedHandler struct {
	next  http.Handler
	mu    sync.Mutex
	bySeq map[int]time.Duration
}

func newTimedHandler(next http.Handler) *timedHandler {
	return &timedHandler{next: next, bySeq: make(map[int]time.Duration)}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
		h.mu.Lock()
		h.bySeq[seq] = d
		h.mu.Unlock()
	}
}

func (h *timedHandler) handlerTime(seq int) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.bySeq[seq]
	return d, ok
}

// timedTransport times every Send of one node's transport.
type timedTransport struct {
	transport.Transport
	sends *samples
}

func (t timedTransport) Send(msg types.Message) error {
	start := time.Now()
	err := t.Transport.Send(msg)
	t.sends.add(time.Since(start))
	return err
}

// timedFS times every fsync and counts every byte written through the
// journal's file system.
type timedFS struct {
	wal.FS
	syncs samples
	bytes atomic.Int64
	// windowBytes is bytes at markBegin, then the window's bytes at markEnd.
	windowBytes int64
}

func (f *timedFS) OpenAppend(name string) (wal.File, error) {
	fl, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

func (f *timedFS) Create(name string) (wal.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

func (f *timedFS) markBegin() { f.syncs.markBegin(); f.windowBytes = f.bytes.Load() }
func (f *timedFS) markEnd()   { f.syncs.markEnd(); f.windowBytes = f.bytes.Load() - f.windowBytes }

type timedFile struct {
	wal.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.add(time.Since(start))
	return err
}

// promSnap is one parse of the registry's Prometheus exposition: series
// text (name plus labels) to value.
type promSnap map[string]float64

func snapshotRegistry(reg *obs.Registry) promSnap {
	var b bytes.Buffer
	reg.WritePrometheus(&b) //nolint:errcheck // writes to a bytes.Buffer
	out := make(promSnap)
	sc := bufio.NewScanner(&b)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// minus returns s - before, series by series.
func (s promSnap) minus(before promSnap) promSnap {
	out := make(promSnap, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// seriesName splits a series key into its metric name and label text.
func seriesName(key string) (string, string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// sum adds every series of the named metric whose labels contain match.
func (s promSnap) sum(name, match string) float64 {
	total := 0.0
	for k, v := range s {
		if n, labels := seriesName(k); n == name && strings.Contains(labels, match) {
			total += v
		}
	}
	return total
}

type bucket struct {
	le  float64
	cum float64
}

// buckets merges the cumulative buckets of every series of a histogram
// whose labels contain match.
func (s promSnap) buckets(name, match string) []bucket {
	byLE := make(map[float64]float64)
	for k, v := range s {
		n, labels := seriesName(k)
		if n != name+"_bucket" || !strings.Contains(labels, match) {
			continue
		}
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		raw := labels[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLE[le] += v
	}
	out := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histQuantile interpolates the q-quantile inside the bucket holding
// it, as Prometheus's histogram_quantile does. NaN for an empty
// histogram.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.cum-below)
		}
		lo, below = b.le, b.cum
	}
	return lo
}

// shareAbove is the fraction of observations above bound, read from the
// largest bucket bound <= bound.
func shareAbove(bs []bucket, bound float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return math.NaN()
	}
	under := 0.0
	for _, b := range bs {
		if b.le <= bound {
			under = b.cum
		}
	}
	return 1 - under/bs[len(bs)-1].cum
}

// heapSampler tracks the peak live-heap size while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stopAndPeak() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}
