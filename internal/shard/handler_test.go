package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// stubHandler serves Handler over a stub executor that answers like a
// worker without running samples: a request failing Validate is a plain
// error (422), a foreign config hash is fatal (409), anything else gets an
// envelope for its range (200). Every request the executor receives is
// appended to *seen.
func stubHandler(seen *[]Request) http.Handler {
	return Handler(func(_ context.Context, req Request) (*Envelope[float64], error) {
		*seen = append(*seen, req)
		if err := req.Validate(); err != nil {
			return nil, err
		}
		if req.ConfigHash != testHash {
			return nil, &FatalError{Err: ErrConfigMismatch}
		}
		return &Envelope[float64]{Version: EnvelopeVersion, ConfigHash: testHash,
			N: req.N, Shard: req.Shard, Lo: req.Lo, Hi: req.Hi}, nil
	})
}

// postShard sends body to POST /shard and returns the status code.
func postShard(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard", bytes.NewReader(body)))
	return rec.Code
}

// TestHandlerRejectsOversizedBody pins the request-body bound: a request
// whose JSON carries a 2 MiB string field is refused with 413 before the
// executor runs, while a normal request on the same handler is served.
func TestHandlerRejectsOversizedBody(t *testing.T) {
	var seen []Request
	h := stubHandler(&seen)

	ok, err := json.Marshal(Request{ConfigHash: testHash, N: 10, Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if code := postShard(h, ok); code != http.StatusOK {
		t.Fatalf("normal request: status %d, want 200", code)
	}
	if len(seen) != 1 {
		t.Fatalf("normal request reached the executor %d times, want 1", len(seen))
	}

	big := []byte(`{"config_hash":"` + strings.Repeat("a", 2<<20) + `","n":10,"lo":0,"hi":10}`)
	if code := postShard(h, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB request: status %d, want 413", code)
	}
	if len(seen) != 1 {
		t.Fatalf("oversized request reached the executor (%d calls)", len(seen))
	}
}

// FuzzShardHandler drives arbitrary POST bodies through Handler. It must
// never panic, every answer must be one of the statuses the wire taxonomy
// defines, and the executor runs exactly when the body decodes, on the
// request it decodes to.
func FuzzShardHandler(f *testing.F) {
	for _, seed := range []string{
		`{"config_hash":"test-config-hash","seed":1,"n":100,"lo":0,"hi":100}`,
		`{"config_hash":"other","n":100,"lo":0,"hi":100}`,
		`{"config_hash":"test-config-hash","n":10,"lo":5,"hi":2}`,
		`{"n":1e400}`,
		`{"sample_budget":{"wall":-1},"hang_grace":"x"}`,
		`{"config_hash":"test-config-hash","n":1,"lo":0,"hi":1} trailing`,
		`[]`, `null`, `{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var seen []Request
		code := postShard(stubHandler(&seen), body)

		var want Request
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		switch code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(seen) != 0 {
				t.Fatalf("status %d after %d executor calls, want none", code, len(seen))
			}
		case http.StatusOK, http.StatusConflict, http.StatusUnprocessableEntity:
			if decodeErr != nil || len(seen) != 1 || !reflect.DeepEqual(seen[0], want) {
				t.Fatalf("status %d: executor saw %+v, want exactly the decoded %+v (decode error %v)",
					code, seen, want, decodeErr)
			}
		default:
			t.Fatalf("status %d outside {200, 400, 409, 413, 422}", code)
		}
		if len(body) <= maxRequestBytes && (decodeErr != nil) != (code == http.StatusBadRequest) {
			t.Fatalf("decode error %v, yet status %d", decodeErr, code)
		}
	})
}
