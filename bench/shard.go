package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/montecarlo"
	"vstat/internal/shard"
)

// shardSize is the samples per shard. At one sample per shard the
// per-shard round trip (HTTP, JSON, template rebuild, fsynced commit) sat
// between every two samples, and this workload's throughput swung with
// host load more than inv_delay's; at four every shard still builds its
// own template and makes its own fsynced commit.
const shardSize = 4

// shardRig routes the inv_delay population through the shard layer:
// nWorkers HTTP endpoints on 127.0.0.1 serving shard.Handler, each running
// a single-worker engine that rebuilds the template per shard; shards of
// shardSize samples; a fresh fsynced dispatch journal per round; and a
// streaming StreamSummary merge.
type shardRig struct {
	g       *rig
	hash    string
	dir     string
	servers []*http.Server
	serving sync.WaitGroup
	client  *http.Client
	eps     []shard.Endpoint[[2]float64]
	// pass is the pass the endpoints' samples report to; rounds are
	// sequential, so it changes only while no shard is in flight.
	pass atomic.Pointer[pass]
}

func newShardRig(g *rig, workdir string) (*shardRig, error) {
	s := &shardRig{g: g, hash: montecarlo.ConfigHash("vsperf", g.w.name, suiteSeed, vdd)}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.dir, err = os.MkdirTemp(workdir, "journal-"); err != nil {
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	exec := shard.NewExecutor(s.hash, 1, s.newState, runSample)
	for ep := 0; ep < nWorkers; ep++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		srv := &http.Server{Handler: shard.Handler(s.timedExec(ep, exec))}
		s.servers = append(s.servers, srv)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			// Serve returns http.ErrServerClosed once close runs; any earlier
			// failure surfaces as failed dispatches to this endpoint.
			_ = srv.Serve(ln)
		}()
		s.eps = append(s.eps, shard.Endpoint[[2]float64]{
			Name: fmt.Sprintf("http-%d", ep),
			Transport: timedTransport{s: s, ep: ep, inner: shard.HTTPEndpoint[[2]float64]{
				Base: "http://" + ln.Addr().String(), Client: s.client}},
		})
	}
	return s, nil
}

// close stops the endpoints, waits for their servers to return, and
// removes the journal directory.
func (s *shardRig) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// newState is the executor's per-shard state: a freshly built template.
func (s *shardRig) newState(int) (*worker, error) {
	ps := s.pass.Load()
	wk, err := s.g.newWorker()
	if err != nil {
		return nil, err
	}
	ps.templateBuilds.Add(1)
	wk.ps = ps
	return wk, nil
}

// round runs one n-sample round through the coordinator and checks the
// shard layer's accounting.
func (s *shardRig) round(ps *pass, seed int64, n int) (roundOut, error) {
	s.pass.Store(ps)
	cfg := shard.Config{N: n, Seed: seed, ConfigHash: s.hash, ShardSize: shardSize, Bench: s.g.w.name, MaxFailFrac: 1}
	path := filepath.Join(s.dir, "round.journal")
	jnl, err := shard.CreateJournal[[2]float64](path, cfg)
	if err != nil {
		return roundOut{}, err
	}
	var ro roundOut
	var fold time.Duration
	res, err := shard.RunWithOptions(context.Background(), cfg, s.eps, nil, shard.RunOptions[[2]float64]{
		Journal: jnl,
		// The coordinator serializes folds and joins its goroutines before
		// returning, so ro and fold need no lock.
		Stream: func(env *shard.Envelope[[2]float64]) {
			t0 := time.Now()
			ro.foldEnvelope(env)
			fold += time.Since(t0)
		},
	})
	err = errors.Join(err, jnl.Close(), os.Remove(path))
	if err != nil {
		return roundOut{}, err
	}
	ro.attempted, ro.ok, ro.failed = res.Report.Attempted, res.Report.Succeeded, res.Report.Failed
	st := res.Stats
	if err := st.Check(res.Shards); err != nil {
		ro.problems = append(ro.problems, err.Error())
	}
	if st.JournalCommits != int64(res.Shards) {
		ro.problems = append(ro.problems, fmt.Sprintf("journal commits %d for %d shards", st.JournalCommits, res.Shards))
	}
	ps.journalCommits += st.JournalCommits
	ps.retries += st.Retried
	ps.peakLive = max(ps.peakLive, st.PeakLiveEnvelopes)
	for _, d := range st.CommitLatency {
		ps.commitLatency += d
	}
	ps.fold += fold
	return ro, nil
}

// foldEnvelope adds a committed shard's successful samples to the round
// summaries (failure indices are validated strictly ascending).
func (r *roundOut) foldEnvelope(env *shard.Envelope[[2]float64]) {
	fi := 0
	for i, v := range env.Results {
		idx := env.Lo + i
		for fi < len(env.Failures) && env.Failures[fi].Idx < idx {
			fi++
		}
		if fi < len(env.Failures) && env.Failures[fi].Idx == idx {
			continue
		}
		r.add(v)
	}
}

// timedTransport is the shard transport with a dispatch span around each
// attempt in a traced pass.
type timedTransport struct {
	s     *shardRig
	ep    int
	inner shard.HTTPEndpoint[[2]float64]
}

// Dispatch implements shard.Transport.
func (t timedTransport) Dispatch(ctx context.Context, req shard.Request) (envs []*shard.Envelope[[2]float64], err error) {
	tr := t.s.pass.Load().tr
	if tr == nil {
		return t.inner.Dispatch(ctx, req)
	}
	tr.dispatch(req.Shard, req.Attempt, t.ep, func() { envs, err = t.inner.Dispatch(ctx, req) })
	return envs, err
}

// timedExec wraps the executor endpoint ep serves with an execution span
// per shard in a traced pass.
func (s *shardRig) timedExec(ep int, exec shard.ExecFn[[2]float64]) shard.ExecFn[[2]float64] {
	return func(ctx context.Context, req shard.Request) (env *shard.Envelope[[2]float64], err error) {
		tr := s.pass.Load().tr
		if tr == nil {
			return exec(ctx, req)
		}
		tr.exec(req.Shard, req.Attempt, req.Lo, req.Hi, ep, func() { env, err = exec(ctx, req) })
		return env, err
	}
}
