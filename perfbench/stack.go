package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// Settings shared by every workload: the paper's timing constant K at a
// 1 ms tick, and commitd's shipped journal and admission defaults.
const (
	tick          = time.Millisecond
	kTicks        = 4
	segmentBytes  = 1 << 20
	snapshotEvery = 4096
	closeTimeout  = 30 * time.Second

	// Every journal starts from the same history, independent of --seed:
	// historyRecords records (decides, then retires once historyLive
	// decisions are held), so each set-up replays a snapshot plus suffix.
	historySeed    = 1986
	historyRecords = 200_000
	historyLive    = 32768
)

func walOptions(fs wal.FS, reg *obs.Registry) wal.SegmentedOptions {
	return wal.SegmentedOptions{
		FS: fs, SegmentBytes: segmentBytes, SnapshotEvery: snapshotEvery, Registry: reg,
	}
}

// groupConfig is commitd's default service configuration (scalar
// dispatch) for one commit group of n processors.
func groupConfig(n int, seed uint64, reg *obs.Registry) service.Config {
	return service.Config{
		N: n, K: kTicks, TickEvery: tick, Seed: seed,
		QueueDepth: 1024, MaxInFlight: 128, BatchMax: 64,
		DefaultTimeout: 10 * time.Second,
		Registry:       reg,
	}
}

func historyID(i int) string { return "hist-" + strconv.Itoa(i) }

// writeDecisionHistory fills dir with the fixed decision-journal history.
func writeDecisionHistory(dir string) error {
	fs, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	log, err := wal.OpenDecisionLog(walOptions(fs, nil))
	if err != nil {
		return err
	}
	d := newDraw(historySeed, 0)
	for i := 0; i < (historyRecords+historyLive)/2; i++ {
		dec := types.DecisionCommit
		if d.chance(10) {
			dec = types.DecisionAbort
		}
		if err := log.Append(historyID(i), dec, nil); err != nil {
			log.Close() //nolint:errcheck // already failing
			return err
		}
		if i >= historyLive {
			if err := log.Retire(historyID(i - historyLive)); err != nil {
				log.Close() //nolint:errcheck // already failing
				return err
			}
		}
	}
	return log.Close()
}

// writeCrossHistory fills dir with the fixed cross-shard log history:
// historyRecords/4 decided two-shard transactions, each a begin, two
// verdicts and an outcome. Writers run concurrently so the outcome
// fsyncs group-commit as they do in service.
func writeCrossHistory(dir string, shards int) error {
	sl, _, err := shard.OpenCrossSegmented(dir, walOptions(nil, nil))
	if err != nil {
		return err
	}
	const writers = 64
	txns := historyRecords / 4
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < txns; i += writers {
				d := newDraw(historySeed, i)
				a := d.intn(shards)
				b := (a + 1 + d.intn(shards-1)) % shards
				if b < a {
					a, b = b, a
				}
				va, vb := types.DecisionCommit, types.DecisionCommit
				if d.chance(15) {
					va = types.DecisionAbort
				}
				if d.chance(15) {
					vb = types.DecisionAbort
				}
				out := types.DecisionCommit
				if va == types.DecisionAbort || vb == types.DecisionAbort {
					out = types.DecisionAbort
				}
				id := historyID(i)
				for _, r := range []shard.CrossRecord{
					{Type: shard.RecBegin, Txn: id, Shards: []int{a, b}},
					{Type: shard.RecVerdict, Txn: id, Shard: a, Decision: va},
					{Type: shard.RecVerdict, Txn: id, Shard: b, Decision: vb},
					{Type: shard.RecOutcome, Txn: id, Decision: out},
				} {
					if err := sl.Append(r); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		sl.Close() //nolint:errcheck // already failing
		return err
	}
	return sl.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stack is one built system under test plus the benchmark's handles on
// it. Exactly one of svc and coord is set.
type stack struct {
	submit func(ctx context.Context, r *request) string
	close  func() error

	reg     *obs.Registry
	svc     *service.Service
	journal string // decision-journal directory (unsharded)
	coord   *shard.Coordinator
	cross   string // cross-shard log directory (sharded)
	nodes   int    // ticking processors
	replay  time.Duration

	// Wrappers, set only in a traced run.
	handler *timedHandler
	fs      *timedFS
	sends   *samples
}

// openJournal opens the decision journal in dir, behind a timing wrapper
// when traced.
func openJournal(dir string, reg *obs.Registry, traced bool) (*wal.DecisionLog, *timedFS, error) {
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		return nil, nil, err
	}
	var fs wal.FS = dfs
	var tfs *timedFS
	if traced {
		tfs = &timedFS{FS: dfs}
		fs = tfs
	}
	j, err := wal.OpenDecisionLog(walOptions(fs, reg))
	if err != nil {
		return nil, nil, fmt.Errorf("opening decision journal: %w", err)
	}
	return j, tfs, nil
}

// closeService drains the service, then closes its journal.
func closeService(svc *service.Service, j *wal.DecisionLog) error {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	err := svc.Close(ctx)
	if jerr := j.Close(); jerr != nil && err == nil {
		err = jerr
	}
	return err
}

// loopbackTCP boots n peered TCP nodes on ephemeral loopback ports, as
// commitd -backend tcp does.
func loopbackTCP(n int, reg *obs.Registry) ([]*transport.TCPNode, error) {
	transport.RegisterWirePayloads()
	nodes := make([]*transport.TCPNode, 0, n)
	peers := make(map[types.ProcID]string, n)
	for p := 0; p < n; p++ {
		tn, err := transport.ListenTCP(types.ProcID(p), "127.0.0.1:0")
		if err != nil {
			for _, prev := range nodes {
				prev.Close() //nolint:errcheck // already failing
			}
			return nil, err
		}
		tn.Instrument(reg)
		nodes = append(nodes, tn)
		peers[types.ProcID(p)] = tn.Addr()
	}
	for _, tn := range nodes {
		tn.SetPeers(peers)
	}
	return nodes, nil
}

// buildHTTPTCP is commitd's default single-group deployment: n=5, scalar
// dispatch, TCP loopback between nodes, a segmented decision journal,
// served over HTTP to a client holding at most conns keep-alive
// connections.
func buildHTTPTCP(dir string, seed uint64, traced bool, conns int) (*stack, error) {
	const n = 5
	reg := obs.NewRegistry()
	j, tfs, err := openJournal(dir, reg, traced)
	if err != nil {
		return nil, err
	}
	nodes, err := loopbackTCP(n, reg)
	if err != nil {
		j.Close() //nolint:errcheck // already failing
		return nil, err
	}
	st := &stack{reg: reg, journal: dir, nodes: n, replay: j.ReplayStats().Duration, fs: tfs}
	trs := make([]transport.Transport, n)
	for p, tn := range nodes {
		trs[p] = tn
	}
	if traced {
		st.sends = &samples{}
		for p, tn := range nodes {
			trs[p] = timedTransport{Transport: tn, sends: st.sends}
		}
	}
	cfg := groupConfig(n, seed, reg)
	cfg.Transports = trs
	cfg.Journal = j
	svc, err := service.New(cfg)
	if err != nil {
		for _, tn := range nodes {
			tn.Close() //nolint:errcheck // already failing
		}
		j.Close() //nolint:errcheck // already failing
		return nil, err
	}
	st.svc = svc
	var h http.Handler = service.NewHTTPHandler(svc)
	if traced {
		st.handler = newTimedHandler(h)
		h = st.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeService(svc, j) //nolint:errcheck // already failing
		return nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns,
		DisableCompression: true,
	}}
	url := "http://" + ln.Addr().String() + "/commit"
	st.submit = func(ctx context.Context, r *request) string {
		return postCommit(ctx, client, url, r)
	}
	st.close = func() error {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if cerr := closeService(svc, j); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	return st, nil
}

// postCommit sends one POST /commit and returns the terminal state, or
// an error state naming the HTTP or transport failure.
func postCommit(ctx context.Context, client *http.Client, url string, r *request) string {
	body, err := json.Marshal(service.CommitRequestJSON{ID: r.id, Votes: r.votes})
	if err != nil {
		return "ERROR"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "ERROR"
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(r.seq))
	resp, err := client.Do(req)
	if err != nil {
		return "ERROR"
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only draining for reuse
		return "HTTP-" + strconv.Itoa(resp.StatusCode)
	}
	var out service.CommitResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "ERROR"
	}
	if out.ID != r.id {
		return "WRONG-ID"
	}
	return string(out.State)
}

// buildInproc is a single n=5 group with batched agreement over the
// in-process channel hub and the decision journal, driven by Submit.
func buildInproc(dir string, seed uint64, traced bool) (*stack, error) {
	const n = 5
	reg := obs.NewRegistry()
	j, tfs, err := openJournal(dir, reg, traced)
	if err != nil {
		return nil, err
	}
	cfg := groupConfig(n, seed, reg)
	cfg.BatchAgreement = true
	cfg.Journal = j
	svc, err := service.New(cfg)
	if err != nil {
		j.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return &stack{
		reg: reg, svc: svc, journal: dir, nodes: n,
		replay: j.ReplayStats().Duration, fs: tfs,
		submit: func(ctx context.Context, r *request) string {
			res, err := svc.Submit(ctx, service.Request{ID: r.id, Votes: r.votes})
			if err != nil {
				return "REFUSED"
			}
			return string(res.State)
		},
		close: func() error { return closeService(svc, j) },
	}, nil
}

// Sharded deployment shape: shardCount groups of shardN processors.
const (
	shardCount = 4
	shardN     = 3
)

// buildSharded is the consistent-hash coordinator over shardCount
// groups of shardN with the segmented cross-shard log, recovered from
// its history before serving, as commitd -shards does.
func buildSharded(dir string, seed uint64) (*stack, error) {
	reg := obs.NewRegistry()
	sl, recs, err := shard.OpenCrossSegmented(dir, walOptions(nil, reg))
	if err != nil {
		return nil, fmt.Errorf("opening cross log: %w", err)
	}
	coord, err := shard.New(shard.Config{
		Shards: shardCount, Group: groupConfig(shardN, seed, reg), Log: sl.CrossLog,
	})
	if err != nil {
		sl.Close() //nolint:errcheck // already failing
		return nil, err
	}
	closeAll := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		defer cancel()
		err := coord.Close(ctx)
		if cerr := sl.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	if len(recs) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		_, err := coord.Recover(ctx, recs)
		cancel()
		if err != nil {
			closeAll() //nolint:errcheck // already failing
			return nil, fmt.Errorf("recovering cross log: %w", err)
		}
	}
	return &stack{
		reg: reg, coord: coord, cross: dir, nodes: shardCount * shardN,
		replay: sl.Stats().Replay.Duration,
		submit: func(ctx context.Context, r *request) string {
			res, err := coord.Submit(ctx, shard.Request{ID: r.id, Keys: r.keys, Votes: r.votes})
			if err != nil {
				return "REFUSED"
			}
			return string(res.State)
		},
		close: closeAll,
	}, nil
}

// keyPools returns, per shard, keys the router places on that shard.
func keyPools(shards, perShard int) ([][]string, error) {
	router, err := shard.NewRouter(shards)
	if err != nil {
		return nil, err
	}
	pools := make([][]string, shards)
	for i, full := 0, 0; full < shards; i++ {
		key := "acct-" + strconv.Itoa(i)
		k := router.Route(key)
		if len(pools[k]) < perShard {
			pools[k] = append(pools[k], key)
			if len(pools[k]) == perShard {
				full++
			}
		}
	}
	for _, p := range pools {
		sort.Strings(p)
	}
	return pools, nil
}
