package server

// Tests for the fleet-facing endpoints: the cache peer tier
// (GET/PUT /cache/{key}) and the corpus job (POST /corpus).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
)

func putCache(t *testing.T, ts *httptest.Server, key cache.Key, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+key.String(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCacheEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key := cache.KeyOf([]byte("fleet-endpoint-test"), []byte("blob"))
	blob := []byte("speculative payload")

	// unknown key -> 404
	resp, err := ts.Client().Get(ts.URL + "/cache/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT = %d, want 404", resp.StatusCode)
	}

	if resp := putCache(t, ts, key, blob); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d %s, want 204", resp.StatusCode, readAll(t, resp))
	} else {
		readAll(t, resp)
	}

	resp, err = ts.Client().Get(ts.URL + "/cache/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, blob) {
		t.Fatalf("GET after PUT = %d %q", resp.StatusCode, got)
	}

	// malformed keys -> 400, both verbs
	resp, err = ts.Client().Get(ts.URL + "/cache/nothex")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET bad key = %d, want 400", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/cache/nothex", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT bad key = %d, want 400", resp.StatusCode)
	}
}

// TestCacheEndpointsBypassAdmissionAndDrain pins the deadlock-avoidance
// property: peer cache lookups answer while every job slot is busy and
// while the server drains — a fleet peer must be able to pull warm
// entries from a worker that is saturated or shutting down.
func TestCacheEndpointsBypassAdmissionAndDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Queue: 1})

	block := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(block) }) }
	defer release()
	started := make(chan struct{}, 1)
	s.mux.HandleFunc("POST /test", s.job("test", func(ctx context.Context, r *http.Request) (any, error) {
		started <- struct{}{}
		<-block
		return map[string]string{"ok": "true"}, nil
	}))

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// saturate the single worker slot
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/test", "application/json", strings.NewReader("{}"))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	key := cache.KeyOf([]byte("bypass-test"))
	if resp := putCache(t, ts, key, []byte("v")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT under load = %d, want 204", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
	resp, err := ts.Client().Get(ts.URL + "/cache/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != "v" {
		t.Fatalf("GET under load = %d %q, want the entry", resp.StatusCode, body)
	}

	// draining: jobs get 503, but the cache tier keeps serving reads
	s.BeginDrain()
	resp = postJSON(t, ts, "/corpus", CorpusRequest{Name: "x.c", Source: "int main() { return 0; }\n"})
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/cache/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != "v" {
		t.Fatalf("GET while draining = %d %q, want the entry", resp.StatusCode, body)
	}
	release()
}

// TestCorpusEndpointByteIdentical pins the corpus job's wire contract:
// the response is exactly MarshalCorpusFile of the local pipeline's
// result, and a failing source reports the pipeline's own error string —
// both halves of the fleet's byte-identity guarantee.
func TestCorpusEndpointByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a corpus file")
	}
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src := "// profile-args: 8\n// ref-args: 16\n" +
		"int g;\n" +
		"int main() { int i; i = 0; while (i < arg(0)) { g = g + i; i = i + 1; } return g; }\n"
	file := experiments.CorpusFile{Name: "loop.c", Source: src}

	want, err := experiments.RunCorpusFileCtx(context.Background(), file, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := experiments.MarshalCorpusFile(want)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts, "/corpus", CorpusRequest{Name: file.Name, Source: file.Source})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corpus = %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, wantBytes) {
		t.Fatalf("corpus response differs from local pipeline:\n%s\nvs\n%s", body, wantBytes)
	}

	// a broken source is the client's fault (400) and must carry the
	// pipeline's own error string out in the error envelope (the
	// coordinator records it as the failure)
	brokenSrc := "int main( {\n"
	_, lerr := experiments.RunCorpusFileCtx(context.Background(), experiments.CorpusFile{Name: "broken.c", Source: brokenSrc}, 0)
	if lerr == nil {
		t.Fatal("broken source compiled locally")
	}
	resp = postJSON(t, ts, "/corpus", CorpusRequest{Name: "broken.c", Source: brokenSrc})
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken corpus = %d %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error != lerr.Error() {
		t.Fatalf("service error %q != pipeline error %q", eb.Error, lerr.Error())
	}
}
