package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// TestErrorEnvelopeConformance walks every HTTP handler's failure paths and
// checks the one contract they all share: a JSON {"error", "code"} envelope
// with the documented status code, served as application/json.
func TestErrorEnvelopeConformance(t *testing.T) {
	live := New(Config{Params: testParams()})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()

	draining := New(Config{Params: testParams()})
	draining.BeginDrain()
	drainTS := httptest.NewServer(draining.Handler())
	defer drainTS.Close()

	// branchOnly serves a restricted kind set, for the unserved-kind paths.
	branchOnly := New(Config{Params: testParams(), Kinds: []trace.Kind{trace.KindBranch}})
	branchTS := httptest.NewServer(branchOnly.Handler())
	defer branchTS.Close()

	wrongPin := formatParamsHash(live.paramsHash ^ 1)
	cases := []struct {
		name       string
		base       string
		method     string
		path       string
		wantStatus int
		wantCode   string
	}{
		{"ingest wrong method", liveTS.URL, http.MethodGet, "/v2/ingest?program=p&kind=branch", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"ingest missing program", liveTS.URL, http.MethodPost, "/v2/ingest?kind=branch", http.StatusBadRequest, CodeMalformed},
		{"ingest bad params pin", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=branch&params=zzz", http.StatusBadRequest, CodeMalformed},
		{"ingest params mismatch", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=branch&params=" + wrongPin, http.StatusConflict, CodeParamMismatch},
		{"ingest draining", drainTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=branch", http.StatusServiceUnavailable, CodeDraining},
		{"decide wrong method", liveTS.URL, http.MethodPost, "/v2/decide?program=p&kind=branch&id=0", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"decide missing program", liveTS.URL, http.MethodGet, "/v2/decide?kind=branch&id=0", http.StatusBadRequest, CodeMalformed},
		{"decide bad branch", liveTS.URL, http.MethodGet, "/v2/decide?program=p&kind=branch&id=x", http.StatusBadRequest, CodeMalformed},
		{"v1 ingest retired", liveTS.URL, http.MethodPost, "/v1/ingest?program=p", http.StatusGone, CodeGone},
		{"v1 decide retired", liveTS.URL, http.MethodGet, "/v1/decide?program=p&branch=0", http.StatusGone, CodeGone},
		{"info wrong method", liveTS.URL, http.MethodPost, "/v1/info", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"stream wrong method", liveTS.URL, http.MethodGet, "/v1/stream", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"stream draining", drainTS.URL, http.MethodPost, "/v1/stream", http.StatusServiceUnavailable, CodeDraining},
		{"snapshot wrong method", liveTS.URL, http.MethodGet, "/v1/snapshot", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"snapshot draining", drainTS.URL, http.MethodPost, "/v1/snapshot", http.StatusServiceUnavailable, CodeDraining},
		{"snapshot unconfigured", liveTS.URL, http.MethodPost, "/v1/snapshot", http.StatusInternalServerError, CodeInternal},

		{"v2 ingest wrong method", liveTS.URL, http.MethodGet, "/v2/ingest?program=p&kind=value", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"v2 ingest draining", drainTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value", http.StatusServiceUnavailable, CodeDraining},
		{"v2 ingest missing kind", liveTS.URL, http.MethodPost, "/v2/ingest?program=p", http.StatusBadRequest, CodeMalformed},
		{"v2 ingest unknown kind", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=quantum", http.StatusBadRequest, CodeUnsupportedKind},
		{"v2 ingest unserved kind", branchTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value", http.StatusBadRequest, CodeUnsupportedKind},
		{"v2 ingest NUL program", liveTS.URL, http.MethodPost, "/v2/ingest?program=p%00q&kind=value", http.StatusBadRequest, CodeMalformed},
		{"v2 ingest unknown policy", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value&policy=zzz", http.StatusBadRequest, CodeUnknownPolicy},
		{"v2 ingest policy mismatch", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value&policy=selftrain", http.StatusConflict, CodeParamMismatch},
		{"v2 ingest params mismatch", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value&params=" + wrongPin, http.StatusConflict, CodeParamMismatch},
		{"v2 decide wrong method", liveTS.URL, http.MethodPost, "/v2/decide?program=p&kind=value&id=0", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"v2 decide unknown kind", liveTS.URL, http.MethodGet, "/v2/decide?program=p&kind=quantum&id=0", http.StatusBadRequest, CodeUnsupportedKind},
		{"v2 decide unserved kind", branchTS.URL, http.MethodGet, "/v2/decide?program=p&kind=memdep&id=0", http.StatusBadRequest, CodeUnsupportedKind},
		{"v2 decide bad id", liveTS.URL, http.MethodGet, "/v2/decide?program=p&kind=value&id=x", http.StatusBadRequest, CodeMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.base+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body is not an error envelope: %v\n%s", err, body)
			}
			if env.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", env.Code, tc.wantCode)
			}
			if env.Error == "" {
				t.Fatal("envelope carries no diagnostic")
			}
		})
	}
}

// TestClientErrorMapping pins the client-side contract: envelopes decode to
// *APIError and map onto the sentinels through errors.Is.
func TestClientErrorMapping(t *testing.T) {
	s, c := newTestServer(t, Config{})
	s.BeginDrain()
	_, err := c.Ingest(context.Background(), "p", synthEvents(10, 1))
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("ingest while draining = %v, want ErrDraining", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("ingest error %T is not *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining || apiErr.Op != "ingest" {
		t.Fatalf("APIError = %+v", apiErr)
	}

	s2, c2 := newTestServer(t, Config{})
	pinned := Connect(c2.base, WithParamsHash(s2.paramsHash^1))
	if _, err := pinned.Ingest(context.Background(), "p", synthEvents(10, 1)); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("pinned ingest = %v, want ErrParamsMismatch", err)
	}

	// Kind and policy rejections map to their sentinels the same way.
	_, c3 := newTestServer(t, Config{Kinds: []trace.Kind{trace.KindBranch}})
	if _, err := c3.IngestKind(context.Background(), "p", trace.KindValue, synthEvents(10, 1)); !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("IngestKind of unserved kind = %v, want ErrUnsupportedKind", err)
	}
	_, c4 := newTestServer(t, Config{})
	misnamed := Connect(c4.base, WithPolicy("zzz"))
	if _, err := misnamed.IngestKind(context.Background(), "p", trace.KindValue, synthEvents(10, 1)); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("IngestKind with unregistered policy pin = %v, want ErrUnknownPolicy", err)
	}
	mispinned := Connect(c4.base, WithPolicy("selftrain"))
	if _, err := mispinned.DecideKind(context.Background(), "p", trace.KindValue, 0); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("DecideKind with mismatched policy pin = %v, want ErrParamsMismatch", err)
	}
}

// TestRetiredV1DataRoutes pins the answer an old client gets from the
// removed /v1 data plane: a 410 envelope whose message names the /v2 route
// with kind=branch, which the client decodes into an *APIError.
func TestRetiredV1DataRoutes(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	for _, tc := range []struct {
		method, path, wantRoute string
	}{
		{http.MethodPost, "/v1/ingest?program=p", "POST /v2/ingest?program=P&kind=branch"},
		{http.MethodGet, "/v1/decide?program=p&branch=0", "GET /v2/decide?program=P&kind=branch&id=N"},
	} {
		req, err := http.NewRequestWithContext(ctx, tc.method, c.base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		err = httpError("legacy", resp)
		resp.Body.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s %s: error %T is not *APIError", tc.method, tc.path, err)
		}
		if apiErr.Status != http.StatusGone || apiErr.Code != CodeGone {
			t.Fatalf("%s %s: APIError = %+v, want 410 %s", tc.method, tc.path, apiErr, CodeGone)
		}
		if !strings.Contains(apiErr.Message, tc.wantRoute) {
			t.Fatalf("%s %s: message %q does not name %q", tc.method, tc.path, apiErr.Message, tc.wantRoute)
		}
	}
}

// TestInfoEndpoint pins /v1/info's contents and the VerifyParams round trip.
func TestInfoEndpoint(t *testing.T) {
	s, c := newTestServer(t, Config{})
	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.APIVersion != APIVersion {
		t.Fatalf("api_version = %q, want %q", info.APIVersion, APIVersion)
	}
	if info.ProtoVersion != trace.StreamProtoVersion {
		t.Fatalf("proto_version = %d, want %d", info.ProtoVersion, trace.StreamProtoVersion)
	}
	if info.Draining || info.Mode != "primary" {
		t.Fatalf("info = %+v", info)
	}
	if info.ParamsHash != formatParamsHash(ParamsHash(s.cfg.Params)) {
		t.Fatalf("params_hash = %q, want %q", info.ParamsHash, formatParamsHash(ParamsHash(s.cfg.Params)))
	}
	h, err := ParseInfoParamsHash(info)
	if err != nil || h != s.paramsHash {
		t.Fatalf("ParseInfoParamsHash = %#x, %v; want %#x", h, err, s.paramsHash)
	}
	if want := trace.KindNames(); !slices.Equal(info.Kinds, want) {
		t.Fatalf("info.Kinds = %v, want %v (a default server serves every kind)", info.Kinds, want)
	}
	if info.Policy != core.PolicyReactive {
		t.Fatalf("info.Policy = %q, want %q", info.Policy, core.PolicyReactive)
	}

	if _, err := c.VerifyParams(context.Background(), s.paramsHash); err != nil {
		t.Fatalf("VerifyParams with matching hash: %v", err)
	}
	if _, err := c.VerifyParams(context.Background(), s.paramsHash^1); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("VerifyParams with wrong hash = %v, want ErrParamsMismatch", err)
	}

	s.BeginDrain()
	info, err = c.Info(context.Background())
	if err != nil || !info.Draining {
		t.Fatalf("info after drain = %+v, %v; want draining", info, err)
	}
}

// TestParamsHashSensitivity checks that the hash separates parameter sets
// and is stable for equal ones.
func TestParamsHashSensitivity(t *testing.T) {
	p := testParams()
	if ParamsHash(p) != ParamsHash(p) {
		t.Fatal("hash not deterministic")
	}
	q := p
	q.MisspecStep++
	if ParamsHash(p) == ParamsHash(q) {
		t.Fatal("hash ignores MisspecStep")
	}
	r := p
	r.EvictBias += 0.5
	if ParamsHash(p) == ParamsHash(r) {
		t.Fatal("hash ignores EvictBias")
	}
	b := p
	b.NoEviction = !b.NoEviction
	if ParamsHash(p) == ParamsHash(b) {
		t.Fatal("hash ignores NoEviction")
	}
}
