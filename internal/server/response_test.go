package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ltrf/internal/exp"
	"ltrf/internal/store"
)

// TestPostBodiesStrict drives every POST endpoint through the one strict
// decoder: unknown fields, malformed JSON and any data after the first
// value are 400s, a body over the cap is a 413, and none of them reaches
// an evaluation.
func TestPostBodiesStrict(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	valid := map[string]string{
		"/v1/eval":       `{"design":"BL","workload":"vectoradd","budget":500}`,
		"/v1/sweep":      `{"designs":["BL"],"workloads":["vectoradd"],"budget":500}`,
		"/v1/experiment": `{"id":"figure9","quick":true,"workloads":["vectoradd"]}`,
	}
	cases := []struct {
		name string
		body func(valid string) string
		code int
		kind string
	}{
		{"second value", func(v string) string { return v + `{"design":"LTRF"}` }, http.StatusBadRequest, "bad_request"},
		{"trailing garbage", func(v string) string { return v + ` trailing-garbage` }, http.StatusBadRequest, "bad_request"},
		{"stray close", func(v string) string { return v + `}` }, http.StatusBadRequest, "bad_request"},
		{"unknown field", func(string) string { return `{"bogus_field":1}` }, http.StatusBadRequest, "bad_request"},
		// No request sets the engine's worker-pool width.
		{"parallelism", func(v string) string { return v[:len(v)-1] + `,"parallelism":2}` }, http.StatusBadRequest, "bad_request"},
		{"malformed", func(v string) string { return v[:len(v)-1] }, http.StatusBadRequest, "bad_request"},
		{"oversized value", func(string) string { return `{"design":"` + strings.Repeat("x", 1024) + `"}` }, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"oversized tail", func(v string) string { return v + strings.Repeat(" ", 1024) }, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, path := range []string{"/v1/eval", "/v1/sweep", "/v1/experiment"} {
		for _, c := range cases {
			t.Run(strings.TrimPrefix(path, "/v1/")+"/"+c.name, func(t *testing.T) {
				resp, err := ts.Client().Post(ts.URL+path, "application/json",
					strings.NewReader(c.body(valid[path])))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var env errorEnvelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.code || env.Error.Kind != c.kind {
					t.Errorf("status = %d kind=%q (%s), want %d/%s",
						resp.StatusCode, env.Error.Kind, env.Error.Message, c.code, c.kind)
				}
				if c.code == http.StatusBadRequest && !strings.HasPrefix(env.Error.Message, "invalid JSON: ") {
					t.Errorf("message %q is not a decode error", env.Error.Message)
				}
			})
		}
	}
	if n := srv.cfg.Engine.Sims(); n != 0 {
		t.Errorf("rejected bodies burned %d simulations, want 0", n)
	}

	// Trailing whitespace is not data: the body is still accepted.
	resp, err := ts.Client().Post(ts.URL+"/v1/eval", "application/json",
		strings.NewReader(valid["/v1/eval"]+"\n\t \n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("body with trailing whitespace = %d, want 200", resp.StatusCode)
	}
}

// readUnary reads one unary response and checks its framing: the status,
// a JSON content type, a Content-Length equal to the body's length and no
// chunking, and a body that is exactly one compact line ending in a single
// newline. It then decodes the body strictly into v.
func readUnary(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding = %v, want none", resp.TransferEncoding)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' || bytes.Count(body, []byte("\n")) != 1 {
		t.Fatalf("body is not one newline-terminated line: %q", body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), body[:len(body)-1]) {
		t.Errorf("body is not compact JSON: %s", body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode: %v (body %s)", err, body)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Errorf("data after the JSON value: %v", err)
	}
}

// directEval evaluates req's point on a fresh engine, bypassing HTTP.
func directEval(t *testing.T, req EvalRequest) EvalResponse {
	t.Helper()
	pt, err := parsePoint(&req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.NewEngine().Eval(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	return evalResponse(pt, res)
}

// TestUnaryResponsesCompactAndLengthFramed pins the unary wire format:
// every non-streaming response is one compact, newline-terminated JSON
// line sent with its Content-Length, and decodes strictly to the value the
// handler was given.
func TestUnaryResponsesCompactAndLengthFramed(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	get := func(path string) *http.Response {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	postBody := func(path string, body any) *http.Response {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("meta", func(t *testing.T) {
		want := srv.meta() // idle server: nothing moves before the request
		var got MetaResponse
		readUnary(t, get("/v1/meta"), http.StatusOK, &got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("meta = %+v, want %+v", got, want)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		var got map[string]string
		readUnary(t, get("/healthz"), http.StatusOK, &got)
		if !reflect.DeepEqual(got, map[string]string{"status": "ok"}) {
			t.Errorf("healthz = %v", got)
		}
	})

	t.Run("eval 200", func(t *testing.T) {
		req := EvalRequest{Design: "LTRF", Workload: "vectoradd", Budget: 2000}
		want := directEval(t, req)
		var got EvalResponse
		readUnary(t, postBody("/v1/eval", req), http.StatusOK, &got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("eval = %+v\nwant   %+v", got, want)
		}
	})

	t.Run("eval 422", func(t *testing.T) {
		req := EvalRequest{Design: "BL", Workload: "sgemm", LatencyX: 64, Budget: 12000}
		want := directEval(t, req)
		if !want.Truncated {
			t.Fatal("point is not truncated; pick a starved one")
		}
		var got errorEnvelope
		readUnary(t, postBody("/v1/eval", req), http.StatusUnprocessableEntity, &got)
		if got.Error.Kind != "truncated" || got.Error.Result == nil {
			t.Fatalf("422 body = %+v", got.Error)
		}
		if !reflect.DeepEqual(*got.Error.Result, want) {
			t.Errorf("truncated result = %+v\nwant             %+v", *got.Error.Result, want)
		}
	})

	t.Run("400", func(t *testing.T) {
		req := EvalRequest{Design: "nosuch", Workload: "sgemm"}
		_, perr := parsePoint(&req)
		want := errorEnvelope{errorBody{Kind: "bad_request", Message: perr.Error()}}
		var got errorEnvelope
		readUnary(t, postBody("/v1/eval", req), http.StatusBadRequest, &got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("400 body = %+v, want %+v", got, want)
		}
	})
}

// TestWriteJSONEncodeFailureIs500 asserts a value that cannot be encoded
// answers a structured, length-framed 500 instead of the status the caller
// asked for with an empty body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"ipc": math.NaN()})
	res := rec.Result()
	var got errorEnvelope
	readUnary(t, res, http.StatusInternalServerError, &got)
	if got.Error.Kind != "encode_failed" || !strings.Contains(got.Error.Message, "unsupported value") {
		t.Errorf("error body = %+v, want kind encode_failed naming the unsupported value", got.Error)
	}
}

// serveEval runs one /v1/eval request through h in process and fails
// unless it answers 200.
func serveEval(b *testing.B, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("eval = %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// newHandler returns a server's handler over eng.
func newHandler(b *testing.B, eng *exp.Engine) http.Handler {
	s, err := New(Config{Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}

// BenchmarkEvalHandler times one warm /v1/eval request through the whole
// handler (decode, validation, admission, lookup, encode) without a
// network: memo-hit answers from the engine's memo; store-hit answers each
// request from the persistent store on an engine that has not seen the
// point yet.
func BenchmarkEvalHandler(b *testing.B) {
	b.Run("memo-hit", func(b *testing.B) {
		h := newHandler(b, exp.NewEngine())
		body := []byte(`{"design":"LTRF","workload":"vectoradd","budget":2000}`)
		serveEval(b, h, body) // fills the memo
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveEval(b, h, body)
		}
	})

	b.Run("store-hit", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.Options{Version: exp.StoreVersion()})
		if err != nil {
			b.Fatal(err)
		}
		const points = 64
		bodies := make([][]byte, points)
		fill := newHandler(b, exp.NewEngineWithStore(st))
		for i := range bodies {
			bodies[i] = fmt.Appendf(nil, `{"design":"LTRF","workload":"vectoradd","latency_x":%g,"budget":500}`,
				1+float64(i)/8)
			serveEval(b, fill, bodies[i])
		}
		var eng *exp.Engine
		var h http.Handler
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%points == 0 {
				// A fresh engine per pass over the pool: every request
				// misses the memo and reads the store.
				b.StopTimer()
				eng = exp.NewEngineWithStore(st)
				h = newHandler(b, eng)
				b.StartTimer()
			}
			serveEval(b, h, bodies[i%points])
		}
		b.StopTimer()
		if n := eng.Sims(); n != 0 {
			b.Fatalf("store-hit pass simulated %d points, want 0", n)
		}
	})
}
