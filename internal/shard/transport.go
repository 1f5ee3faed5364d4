package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sync/atomic"
	"time"
)

// The dispatch error taxonomy the backoff ladder distinguishes:
//
//   - retryable (the default): transport hiccups, worker crashes, and the
//     typed ErrDraining a shutting-down worker answers with. The
//     coordinator retries through the usual backoff and the worker only
//     counts toward DeadAfter like any other failure.
//   - fatal (FatalError): the worker refused the request for a reason no
//     retry can fix — a config-hash mismatch means it is built for a
//     different run. The coordinator retires the endpoint immediately and
//     re-routes the shard elsewhere.

// ErrDraining is the typed retryable rejection a worker returns once its
// drain has begun (SIGTERM on `vsshard serve`): the in-flight shard is
// completed and flushed, new requests bounce with this error so the
// coordinator's existing retry ladder re-dispatches them to live workers.
var ErrDraining = errors.New("shard: worker draining")

// FatalError marks a dispatch refusal that retrying cannot fix.
type FatalError struct{ Err error }

func (e *FatalError) Error() string { return e.Err.Error() }
func (e *FatalError) Unwrap() error { return e.Err }

// IsFatal reports whether err carries a FatalError anywhere in its chain.
func IsFatal(err error) bool {
	var fe *FatalError
	return errors.As(err, &fe)
}

// HTTP headers carrying the error taxonomy across the wire: a status code
// alone is ambiguous (a proxy can 503 too), so the worker marks its typed
// rejections explicitly and HTTPEndpoint reconstructs the right Go error.
const (
	headerDraining = "X-Vstat-Draining"
	headerFatal    = "X-Vstat-Fatal"
)

// maxRequestBytes bounds a POST /shard body. A Request encodes to a few
// hundred bytes; anything past this is refused with 413 before the
// executor runs, so a client cannot make the handler buffer unbounded JSON.
const maxRequestBytes = 1 << 20

// Gate is a worker's drain switch. Serve traffic while open; after Drain
// (SIGTERM) every new shard request and health probe is rejected with the
// typed retryable draining error while in-flight work runs to completion.
type Gate struct{ draining atomic.Bool }

// Drain flips the gate; idempotent.
func (g *Gate) Drain() { g.draining.Store(true) }

// Draining reports whether Drain was called. Nil-safe (an ungated handler
// never drains).
func (g *Gate) Draining() bool { return g != nil && g.draining.Load() }

// Transport delivers one shard request to a worker and returns the
// envelopes that came back. The slice return models at-least-once
// delivery honestly: a healthy worker yields exactly one envelope, a
// fault-injecting or real flaky transport may deliver the same result
// twice (retransmit racing the original) or none at all. (nil, nil) means
// the attempt was lost without a transport error; the coordinator treats
// both a lost attempt and a returned error as a retryable failure.
type Transport[T any] interface {
	Dispatch(ctx context.Context, req Request) ([]*Envelope[T], error)
}

// Loopback runs the executor in-process: the transport used by tests and
// by the coordinator's local-fallback path. One envelope, no wire.
type Loopback[T any] struct {
	Exec ExecFn[T]
}

// Dispatch implements Transport.
func (l Loopback[T]) Dispatch(ctx context.Context, req Request) ([]*Envelope[T], error) {
	env, err := l.Exec(ctx, req)
	if err != nil {
		return nil, err
	}
	return []*Envelope[T]{env}, nil
}

// JSONRoundTrip encodes a request, runs exec, and decodes the envelope
// through JSON — the exact serialization every remote transport uses — so
// tests can pin wire fidelity without sockets.
func JSONRoundTrip[T any](ctx context.Context, exec ExecFn[T], req Request) (*Envelope[T], error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var req2 Request
	if err := json.Unmarshal(raw, &req2); err != nil {
		return nil, err
	}
	env, err := exec(ctx, req2)
	if err != nil {
		return nil, err
	}
	raw, err = json.Marshal(env)
	if err != nil {
		return nil, err
	}
	out := new(Envelope[T])
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// HTTPEndpoint dispatches shard requests to a `vsshard serve` worker over
// POST {Base}/shard with JSON request/envelope bodies.
type HTTPEndpoint[T any] struct {
	Base   string // e.g. "http://127.0.0.1:8731"
	Client *http.Client
}

// Dispatch implements Transport.
func (h HTTPEndpoint[T]) Dispatch(ctx context.Context, req Request) ([]*Envelope[T], error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Errorf("shard: worker %s: %s: %s", h.Base, resp.Status, bytes.TrimSpace(raw))
		if resp.Header.Get(headerFatal) != "" {
			return nil, &FatalError{Err: msg}
		}
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(headerDraining) != "" {
			return nil, fmt.Errorf("%w: %v", ErrDraining, msg)
		}
		return nil, msg
	}
	env := new(Envelope[T])
	if err := json.Unmarshal(raw, env); err != nil {
		return nil, fmt.Errorf("shard: worker %s sent undecodable envelope: %w", h.Base, err)
	}
	return []*Envelope[T]{env}, nil
}

// Handler serves an executor over HTTP: POST /shard runs a request, GET
// /healthz answers liveness probes. The `vsshard serve` mode mounts this
// via GatedHandler so SIGTERM can drain it.
func Handler[T any](exec ExecFn[T]) http.Handler {
	return GatedHandler(exec, nil)
}

// GatedHandler is Handler with a drain gate. Once gate.Drain() fires, both
// endpoints answer 503 with the draining header, which HTTPEndpoint maps
// back to the retryable ErrDraining — the coordinator backs off and
// re-dispatches to a worker that is still open. Executor errors map onto
// the taxonomy too: a FatalError (config mismatch) becomes 409 + the fatal
// header so the coordinator retires the endpoint instead of retrying a
// request that can never succeed there. A body that does not decode is a
// 400, and one longer than maxRequestBytes a 413; neither reaches exec.
func GatedHandler[T any](exec ExecFn[T], gate *Gate) http.Handler {
	mux := http.NewServeMux()
	rejectDraining := func(w http.ResponseWriter) bool {
		if !gate.Draining() {
			return false
		}
		w.Header().Set(headerDraining, "1")
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return true
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if rejectDraining(w) {
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/shard", func(w http.ResponseWriter, r *http.Request) {
		if rejectDraining(w) {
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		env, err := exec(r.Context(), req)
		if err != nil {
			if IsFatal(err) {
				w.Header().Set(headerFatal, "1")
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(env)
	})
	return mux
}

// ProcEndpoint spawns one worker subprocess per dispatch (`vsshard work`
// style): the request goes to stdin as one JSON document, the envelope
// comes back on stdout. A killed or crashing worker surfaces as a dispatch
// error the coordinator retries — the kill-a-worker demo in the README
// exercises exactly this path.
type ProcEndpoint[T any] struct {
	Argv []string // command + args; must speak the work protocol
}

// Dispatch implements Transport.
func (p ProcEndpoint[T]) Dispatch(ctx context.Context, req Request) ([]*Envelope[T], error) {
	if len(p.Argv) == 0 {
		return nil, fmt.Errorf("shard: empty worker argv")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, p.Argv[0], p.Argv[1:]...)
	cmd.Stdin = bytes.NewReader(body)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("shard: worker process: %w (stderr: %s)", err, bytes.TrimSpace(errBuf.Bytes()))
	}
	env := new(Envelope[T])
	if err := json.Unmarshal(out.Bytes(), env); err != nil {
		return nil, fmt.Errorf("shard: worker process sent undecodable envelope: %w", err)
	}
	return []*Envelope[T]{env}, nil
}

// Endpoint names a transport for the coordinator's worker pool.
type Endpoint[T any] struct {
	Name      string
	Transport Transport[T]
}

// WaitHealthy polls an HTTP worker's /healthz until it answers or the
// context expires — `vsshard run -peers` uses it so freshly spawned
// servers are not counted dead before they finish binding.
func WaitHealthy(ctx context.Context, base string, client *http.Client) error {
	if client == nil {
		client = http.DefaultClient
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("shard: worker %s never became healthy: %w", base, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}
