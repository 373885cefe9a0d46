// Command perfbench is the commit service's benchmark. One invocation
// runs one workload for a fixed window and prints its metrics, ending
// with one JSON line:
//
//	perfbench --workload http-tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 builds the same
// stack with timing wrappers around its interfaces and reports the
// per-layer metrics instead. Every run checks its correctness gates and
// exits nonzero, naming the gate, when one fails. README.md in this
// directory records the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/types"
	"repro/internal/wal"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	mix  mix
	// clients > 0 runs a closed loop of that many clients; otherwise an
	// open loop at rate requests per second.
	clients int
	rate    float64
	// history writes the journal every set-up starts from.
	history func(dir string) error
	build   func(dir string, seed uint64, traced bool) (*stack, error)
}

const (
	// rounds is how many stacks one run measures, each for an equal
	// share of the window. A stack's latency carries a draw fixed when it
	// starts (most likely its nodes' ticker phases), so one stack per run
	// would make that draw the run's result.
	rounds = 5
	// warmUp runs before each round's share of the window.
	warmUp = time.Second
	// setupReps is how many unmeasured set-ups setup_s is the median of.
	setupReps = 31
	// roundIDs separates the request numbers of successive rounds.
	roundIDs = 10_000_000
	// openRate is sharded-open's fixed arrival rate (requests/s). At
	// twice this rate a slow spell of a shared 2-core host tipped some
	// runs into a growing backlog.
	openRate = 750
)

func workloads() map[string]*workload {
	conns := runtime.NumCPU()
	return map[string]*workload{
		"http-tcp": {
			name: "http-tcp", mix: mix{n: 5, dissentPct: 10}, clients: conns,
			history: writeDecisionHistory,
			build: func(dir string, seed uint64, traced bool) (*stack, error) {
				return buildHTTPTCP(dir, seed, traced, conns)
			},
		},
		"inproc-batched": {
			name: "inproc-batched", mix: mix{n: 5, dissentPct: 10}, clients: 32,
			history: writeDecisionHistory,
			build:   buildInproc,
		},
		"sharded-open": {
			name: "sharded-open", mix: mix{n: shardN, dissentPct: 30, crossPct: 20}, rate: openRate,
			history: func(dir string) error { return writeCrossHistory(dir, shardCount) },
			build: func(dir string, seed uint64, _ bool) (*stack, error) {
				return buildSharded(dir, seed)
			},
		},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: http-tcp, inproc-batched or sharded-open")
	seed := fs.Uint64("seed", 1, "seed the request stream is derived from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	wl, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		fs.Usage()
		return 2
	}
	rep, err := execute(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed")
		return 3
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload end to end: history, repeated set-up, then
// the measured window in rounds, each on a stack of its own with its
// own warm-up, drain and correctness gates.
func execute(wl *workload, seed uint64, length time.Duration, traced bool, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d\n",
		wl.name, seed, length.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	probeBefore := []time.Duration{calibrate(), calibrate(), calibrate()}

	work, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	pristine := filepath.Join(work, "history")
	histStart := time.Now()
	if err := wl.history(pristine); err != nil {
		return nil, fmt.Errorf("writing history: %w", err)
	}
	fmt.Fprintf(out, "history: %d records written in %.2fs\n", historyRecords, time.Since(histStart).Seconds())
	if wl.mix.crossPct > 0 {
		if wl.mix.pools, err = keyPools(shardCount, 64); err != nil {
			return nil, err
		}
	}
	built := 0
	build := func() (*stack, time.Duration, error) {
		dir := filepath.Join(work, "stack-"+strconv.Itoa(built))
		built++
		if err := copyDir(pristine, dir); err != nil {
			return nil, 0, err
		}
		// Every set-up starts from a collected heap handed back to the
		// OS, not from the garbage of the stack before it.
		debug.FreeOSMemory()
		begin := time.Now()
		st, err := wl.build(dir, seed, traced)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		return st, time.Since(begin), nil
	}

	// Set up setupReps times from copies of the same history.
	var setups, replays []float64
	for rep := 0; rep < setupReps; rep++ {
		st, took, err := build()
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		replays = append(replays, st.replay.Seconds())
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("closing set-up %d: %w", rep, err)
		}
	}

	var rs []*round
	for i := 0; i < rounds; i++ {
		st, _, err := build()
		if err != nil {
			return nil, err
		}
		r, err := runRound(wl, st, seed, i*roundIDs, length/rounds, traced, replays)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rs = append(rs, r)
	}
	e2e := endToEnd(rs, setups)
	for i, r := range rs {
		v := endToEnd([]*round{r}, nil)
		fmt.Fprintf(out, "round %d: latency_p50_ms %.3f latency_mean_ms %.3f goodput_tps %.1f cpu_us_per_decision %.1f\n",
			i+1, v["latency_p50_ms"], v["latency_mean_ms"], v["goodput_tps"], v["cpu_us_per_decision"])
	}
	var layers map[string]float64
	if traced {
		layers = combineLayers(rs, e2e)
	}
	probeAfter := []time.Duration{calibrate(), calibrate(), calibrate()}

	printCalibration(out, probeBefore, probeAfter)
	rep := &report{Correct: true, Metrics: make(map[string]metric)}
	var measuredSecs float64
	for _, r := range rs {
		measuredSecs += r.w.t1.Sub(r.w.t0).Seconds()
		rep.Attempted += len(r.measured)
		for _, q := range r.measured {
			if !q.decided() {
				rep.Failed++
			}
		}
	}
	fmt.Fprintf(out, "window: %.3fs in %d rounds, attempted %d, failed %d, set-ups %d\n",
		measuredSecs, len(rs), rep.Attempted, rep.Failed, setupReps)
	defs := endToEndDefs
	vals := e2e
	if traced {
		defs, vals = perLayerDefs, layers
	}
	for _, d := range defs {
		v := vals[d.name]
		shown := strconv.FormatFloat(v, 'f', 4, 64)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// The workload does not exercise this layer.
			shown, v = "n/a", 0
		}
		fmt.Fprintf(out, "metric %-34s %12s %s\n", d.name, shown, d.unit)
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if traced {
		fmt.Fprintf(out, "budget: stage p50s plus HTTP client overhead leave %.1f%% of latency_p50_ms unaccounted\n",
			layers["service.budget_unaccounted_pct"])
		fmt.Fprintf(out, "remark 1: %.3f%% of instances decided later than 8K = %d ticks; nodes missed %.1f%% of scheduled ticks\n",
			layers["txn.over_8k_pct"], 8*kTicks, layers["runtime.tick_deficit_pct"])
	}
	for _, g := range mergeGates(rs) {
		verdict := "PASS"
		if g.err != nil {
			verdict = "FAIL: " + g.err.Error()
			rep.Correct = false
		}
		fmt.Fprintf(out, "gate %s %s\n", g.name, verdict)
	}
	return rep, nil
}

// round is one measured stretch of the window on a freshly set-up
// stack.
type round struct {
	w        *window
	all      []*request // every request sent, warm-up included
	measured []*request // those due inside the window
	late     []time.Duration
	layers   map[string]float64 // traced runs only
	gates    []gate
}

// runRound warms st up, measures it for length, drains it, checks its
// gates and closes it. Its requests are numbered from base, so that no
// two rounds of a run share a transaction id.
func runRound(wl *workload, st *stack, seed uint64, base int, length time.Duration, traced bool, replays []float64) (*round, error) {
	w := &window{warm: warmUp, length: length}
	var gc0, gc1 time.Duration
	var before, after promSnap
	var heap *heapSampler
	w.onBegin = func() {
		if traced {
			before = snapshotRegistry(st.reg)
			gc0 = gcPauseTotal()
			heap = startHeapSampler()
			st.markBegin()
		}
	}
	w.onEnd = func() {
		if traced {
			st.markEnd()
			after = snapshotRegistry(st.reg)
			gc1 = gcPauseTotal()
		}
	}
	r := &round{w: w}
	if wl.clients > 0 {
		r.all = closedLoop(st, &wl.mix, seed, base, wl.clients, w)
	} else {
		r.all, r.late = openLoop(st, &wl.mix, seed, base, wl.rate, w)
	}
	// The hooks hold the stack; the round outlives it.
	w.onBegin, w.onEnd = nil, nil
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.stopAndPeak()
	}
	r.measured = dueIn(r.all, w.t0, w.t1)
	if len(r.measured) == 0 {
		st.close() //nolint:errcheck // already failing
		return nil, errors.New("no request was sent inside the measured window")
	}
	if traced {
		e2e := endToEnd([]*round{r}, nil)
		r.layers = perLayer(st, r.all, r.measured, w, e2e, after.minus(before), r.late, replays, gc1-gc0, heapPeak)
	}

	r.gates = checkLive(st, r.all)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing the measured stack: %w", err)
	}
	r.gates = append(r.gates, checkRecovered(st, r.all))
	return r, nil
}

// mergeGates keeps, for each gate, its first failure in any round.
func mergeGates(rs []*round) []gate {
	var out []gate
	at := make(map[string]int)
	for _, r := range rs {
		for _, g := range r.gates {
			i, seen := at[g.name]
			if !seen {
				at[g.name] = len(out)
				out = append(out, g)
			} else if out[i].err == nil {
				out[i].err = g.err
			}
		}
	}
	return out
}

func (st *stack) markBegin() {
	if st.sends != nil {
		st.sends.markBegin()
	}
	if st.fs != nil {
		st.fs.markBegin()
	}
}

func (st *stack) markEnd() {
	if st.sends != nil {
		st.sends.markEnd()
	}
	if st.fs != nil {
		st.fs.markEnd()
	}
}

// printCalibration reports the host probe before and after the run and
// flags the host as noisy when its median moved by more than 10%.
func printCalibration(out io.Writer, before, after []time.Duration) {
	b, a := median(ms(before)), median(ms(after))
	drift := math.Abs(a-b) / math.Min(a, b)
	verdict := "steady"
	if drift > 0.10 {
		verdict = "NOISY HOST"
	}
	fmt.Fprintf(out, "host calibration: probe %.2f ms before, %.2f ms after, drift %.1f%%: %s\n",
		b, a, 100*drift, verdict)
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

type def struct{ name, unit string }

var endToEndDefs = []def{
	{"latency_p50_ms", "ms"},
	{"latency_mean_ms", "ms"},
	{"goodput_tps", "1/s"},
	{"decisions_tps", "1/s"},
	{"allyes_commit_pct", "%"},
	{"ok_pct", "%"},
	{"cpu_us_per_decision", "us"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// minSlice is the fewest requests a slice holds, so that its p99 has at
// least five samples beyond it.
const minSlice = 500

// endToEnd computes the metrics a client of the service sees. Each
// round's window is cut into equal slices of whole steps, as many as its
// request count allows up to 10, and each timing and rate of a round is
// the median of its per-slice values, so a short stall of the host moves
// a slice, not the round. The run's value is the mean of the rounds'
// values without the highest and the lowest: every stack makes its own
// start-up draw, and the mean of several draws settles where their
// median would jump between them. Latency is over the requests due in a slice,
// throughput over the answers given in it, CPU time over the slice's
// decisions.
func endToEnd(rs []*round, setups []float64) map[string]float64 {
	var p50, mean, p90, p99, goodput, decisions, cpuPer []float64
	var ok, allYes, allYesCommits, attempted int
	for _, rd := range rs {
		w := rd.w
		slices := 1
		for _, k := range []int{2, 4, 5, 10} {
			if len(rd.measured) >= k*minSlice {
				slices = k
			}
		}
		per := steps / slices
		secs := w.length.Seconds() / float64(slices)
		var sp50, smean, sp90, sp99, sgood, sdec, scpu []float64
		for j := 0; j < slices; j++ {
			from, to := w.boundary(j*per), w.boundary((j+1)*per)
			var lat []float64
			for _, r := range dueIn(rd.measured, from, to) {
				lat = append(lat, float64(r.latency())/float64(time.Millisecond))
			}
			sp50 = append(sp50, quantile(lat, 0.50))
			smean = append(smean, average(lat))
			sp90 = append(sp90, quantile(lat, 0.90))
			sp99 = append(sp99, quantile(lat, 0.99))
			decided, commits := answeredIn(rd.all, from, to)
			sgood = append(sgood, float64(commits)/secs)
			sdec = append(sdec, float64(decided)/secs)
			cpu := w.cpu[(j+1)*per] - w.cpu[j*per]
			scpu = append(scpu, float64(cpu)/float64(time.Microsecond)/float64(decided))
		}
		p50 = append(p50, median(sp50))
		mean = append(mean, median(smean))
		p90 = append(p90, median(sp90))
		p99 = append(p99, median(sp99))
		goodput = append(goodput, median(sgood))
		decisions = append(decisions, median(sdec))
		cpuPer = append(cpuPer, median(scpu))
		attempted += len(rd.measured)
		for _, r := range rd.measured {
			if r.decided() {
				ok++
			}
			if !r.dissent {
				allYes++
				if r.state == "COMMIT" {
					allYesCommits++
				}
			}
		}
	}
	return map[string]float64{
		"latency_p50_ms":      trimmedMean(p50),
		"latency_mean_ms":     trimmedMean(mean),
		"latency_p90_ms":      trimmedMean(p90),
		"latency_p99_ms":      trimmedMean(p99),
		"goodput_tps":         trimmedMean(goodput),
		"decisions_tps":       trimmedMean(decisions),
		"allyes_commit_pct":   100 * float64(allYesCommits) / float64(allYes),
		"ok_pct":              100 * float64(ok) / float64(attempted),
		"cpu_us_per_decision": trimmedMean(cpuPer),
		"max_rss_mb":          maxRSSMB(),
		"setup_s":             median(setups),
	}
}

type gate struct {
	name string
	err  error
}

// checkLive runs the gates that read the running stack: protocol safety,
// abort validity for dissenting votes, and cross-shard atomicity.
func checkLive(st *stack, all []*request) []gate {
	var violations uint64
	if st.svc != nil {
		violations = st.svc.Metrics().SafetyViolations
	} else {
		violations = st.coord.Metrics().Aggregate.SafetyViolations
	}
	gates := []gate{{name: "safety-violations"}}
	if violations != 0 {
		gates[0].err = fmt.Errorf("%d conflicting decisions", violations)
	}

	dissent := gate{name: "dissent-aborts"}
	for _, r := range all {
		if r.dissent && r.state == "COMMIT" {
			dissent.err = fmt.Errorf("%s carried a no vote and committed", r.id)
			break
		}
	}
	gates = append(gates, dissent)

	if st.coord != nil {
		atomic := gate{name: "cross-children-committed"}
	check:
		for _, r := range all {
			if !r.cross || r.state != "COMMIT" {
				continue
			}
			top, ok := st.coord.Status(r.id)
			if !ok || !top.Cross {
				atomic.err = fmt.Errorf("%s committed but has no cross-shard status", r.id)
				break
			}
			for _, k := range top.Shards {
				child, ok := st.coord.Status(shard.ChildID(r.id, k))
				if !ok || child.State != service.StateCommit {
					atomic.err = fmt.Errorf("%s committed but child on shard %d is %q", r.id, k, child.State)
					break check
				}
			}
		}
		gates = append(gates, atomic)
	}
	return gates
}

// checkRecovered reopens the closed stack's log and checks that every
// acknowledged decision survived: unchanged in the decision journal
// unless the service's status retention has since retired it, or, for
// the cross-shard log, never left in doubt.
func checkRecovered(st *stack, all []*request) gate {
	g := gate{name: "journal-recovers-acks"}
	if st.coord != nil {
		sl, recs, err := shard.OpenCrossSegmented(st.cross, walOptions(nil, nil))
		if err != nil {
			g.err = fmt.Errorf("reopening cross log: %w", err)
			return g
		}
		defer sl.Close()
		inDoubt := make(map[string]bool)
		for _, rec := range recs {
			inDoubt[rec.Txn] = true
		}
		for _, r := range all {
			if r.cross && r.decided() && inDoubt[r.id] {
				g.err = fmt.Errorf("acknowledged %s %s reopened in doubt", r.id, r.state)
				break
			}
		}
		return g
	}
	fs, err := wal.NewDirFS(st.journal)
	if err != nil {
		g.err = err
		return g
	}
	j, err := wal.OpenDecisionLog(walOptions(fs, nil))
	if err != nil {
		g.err = fmt.Errorf("reopening journal: %w", err)
		return g
	}
	defer j.Close()
	rec := j.Recovered()
	for _, r := range all {
		if !r.decided() {
			continue
		}
		if _, kept := st.svc.Status(r.id); !kept {
			// The service's status retention evicted it, and retired it
			// from the journal with it.
			continue
		}
		want := types.DecisionAbort
		if r.state == "COMMIT" {
			want = types.DecisionCommit
		}
		if got, ok := rec[r.id]; !ok || got != want {
			g.err = fmt.Errorf("acknowledged %s %s recovered as %v (present %t)", r.id, r.state, got, ok)
			break
		}
	}
	return g
}
