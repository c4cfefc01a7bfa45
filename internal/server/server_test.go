package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pride/internal/faultinject"
	"pride/internal/trace"
	"pride/internal/trialrunner"
)

// smallSecuritySpec is a sub-second campaign for lifecycle tests.
func smallSecuritySpec(seed uint64) string {
	return fmt.Sprintf(`{"kind":"security","seed":%d,"security":{"entries":1,"window":16,"periods":2000}}`, seed)
}

// testServer builds a started Server on a fresh temp dir. The cleanup drains
// it.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.JobRetry.Backoff == 0 {
		cfg.JobRetry.Backoff = time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec string, hdr map[string]string) (int, Job, string) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var j Job
	json.Unmarshal(buf.Bytes(), &j)
	return resp.StatusCode, j, buf.String()
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, Job) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j Job
	json.NewDecoder(resp.Body).Decode(&j)
	return resp.StatusCode, j
}

// waitState polls until the job reaches any of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, j := getJob(t, ts, id)
		for _, w := range want {
			if j.State == w {
				return j
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, j := getJob(t, ts, id)
	t.Fatalf("job %s stuck in state %q (err %q), want one of %v", id, j.State, j.Error, want)
	return Job{}
}

func TestSubmitPollDoneAndCacheHit(t *testing.T) {
	s, ts := testServer(t, Config{})
	code, j, body := postSpec(t, ts, smallSecuritySpec(1), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", code, body)
	}
	if j.State != StateQueued || j.ID == "" || j.Kind != "security" {
		t.Fatalf("submit response: %+v", j)
	}
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	var res SecurityResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}

	// Identical resubmission: served from cache, no recompute, bit-identical.
	code, j2, _ := postSpec(t, ts, smallSecuritySpec(1), nil)
	if code != http.StatusOK || !j2.Cached || j2.State != StateDone {
		t.Fatalf("resubmit = %d %+v, want cached done", code, j2)
	}
	if !bytes.Equal(j2.Result, done.Result) {
		t.Fatalf("cached result differs:\n  %s\n  %s", j2.Result, done.Result)
	}
	if got := s.Campaign().Snapshot().CacheHits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}

	// A different seed is a different key: not cached.
	code, j3, _ := postSpec(t, ts, smallSecuritySpec(2), nil)
	if code != http.StatusAccepted || j3.ID == j.ID {
		t.Fatalf("different seed reused job: %d %+v", code, j3)
	}
}

func TestSubmitIsIdempotentWhileInFlight(t *testing.T) {
	// A long-enough job that the second submission lands while the first
	// is queued or running: both must name the same job.
	_, ts := testServer(t, Config{})
	spec := `{"kind":"security","seed":3,"security":{"entries":1,"window":16,"periods":2000000}}`
	code1, j1, _ := postSpec(t, ts, spec, nil)
	code2, j2, _ := postSpec(t, ts, spec, nil)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit = %d", code1)
	}
	if code2 != http.StatusOK || j2.ID != j1.ID {
		t.Fatalf("second submit = %d id=%s, want 200 id=%s", code2, j2.ID, j1.ID)
	}
}

func TestSubmitValidationAndNotFound(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, _, body := postSpec(t, ts, `{"kind":"security"}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "exactly one") {
		t.Fatalf("invalid spec = %d %s", code, body)
	}
	code, _, body = postSpec(t, ts, `{"kind":"security","typo":1,"security":{"periods":10}}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "typo") {
		t.Fatalf("unknown field = %d %s", code, body)
	}
	if code, _ := getJob(t, ts, "deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
	// Admission: a replay over the record limit is a client error at submit.
	over := fmt.Sprintf(`{"kind":"replay","seed":1,"replay":{"workload":"lbm","mapping":"col=6 bank=2 row=10 rank=0 chan=1 xor=0","acts":%d,"scheme":"PrIDE","trh":500}}`, 10_000_000_000)
	code, _, body = postSpec(t, ts, over, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, fmt.Sprint(MaxReplayRecords)) {
		t.Fatalf("replay over the record limit = %d %s, want 400 naming the limit", code, body)
	}
}

// TestRewrittenTraceFailsAndStoresNothing rewrites a binary trace file
// between a replay job's submit and its run. The run reads other records
// than the submit fingerprinted, so the job must fail naming both keys and
// store nothing under either; resubmitting the spec then fingerprints the
// new content and runs it fresh, matching the direct campaign.
func TestRewrittenTraceFailsAndStoresNothing(t *testing.T) {
	const mapping = "col=6 bank=2 row=10 rank=0 chan=1 xor=0"
	path := filepath.Join(t.TempDir(), "rewritten.trace")
	writeTraceFile(t, path, "lbm", mapping, 20000, 1)
	spec := fmt.Sprintf(`{"kind":"replay","seed":5,"replay":{"trace_path":%q,"scheme":"PrIDE","trh":500}}`, path)

	// The server starts no worker until the file is rewritten, so the job
	// is still queued when its file changes.
	dataDir := t.TempDir()
	s, err := New(Config{DataDir: dataDir, JobRetry: trialrunner.RetryPolicy{Backoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	code, j, body := postSpec(t, ts, spec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", code, body)
	}
	submitted := j.Key

	// Same mapping and length, other records.
	writeTraceFile(t, path, "lbm", mapping, 20000, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rewritten, wantResult := directReplay(t, tr, 5)
	if rewritten == submitted {
		t.Fatal("the rewrite did not change the trace's key")
	}

	s.Start()
	failed := waitState(t, ts, j.ID, StateDone, StateFailed)
	if failed.State != StateFailed || !strings.Contains(failed.Error, submitted) || !strings.Contains(failed.Error, rewritten) {
		t.Fatalf("job over a rewritten trace = %s (%s), want failed naming %q and %q", failed.State, failed.Error, submitted, rewritten)
	}
	// A changed stream fails the same way on every attempt, so the job
	// reads the file once instead of once per retry.
	if failed.Attempts != 1 || !strings.Contains(failed.Error, "failed after 1 attempt(s)") {
		t.Fatalf("job over a rewritten trace made %d attempt(s) (%s), want 1", failed.Attempts, failed.Error)
	}
	for _, key := range []string{submitted, rewritten} {
		if _, ok, err := s.store.Get(key); ok || err != nil {
			t.Fatalf("store holds a result under %q (ok=%v err=%v)", key, ok, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dataDir, "checkpoints", j.ID+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("the failed job left a checkpoint: %v", err)
	}

	code, j2, _ := postSpec(t, ts, spec, nil)
	if code != http.StatusAccepted || j2.ID == j.ID || j2.Key != rewritten {
		t.Fatalf("resubmit = %d id=%s key=%q, want 202, a new job and key %q", code, j2.ID, j2.Key, rewritten)
	}
	done := waitState(t, ts, j2.ID, StateDone, StateFailed)
	if done.State != StateDone || done.Key != rewritten {
		t.Fatalf("resubmitted job = %s key=%q (%s), want done with key %q", done.State, done.Key, done.Error, rewritten)
	}
	if got := compactJSON(t, done.Result); !bytes.Equal(got, wantResult) {
		t.Fatalf("result differs from the direct campaign:\n  server: %s\n  direct: %s", got, wantResult)
	}
}

func TestRateLimiting(t *testing.T) {
	_, ts := testServer(t, Config{RateLimit: 0.001, RateBurst: 2})
	hdr := map[string]string{"X-Pride-Client": "hammer"}
	// Burst of 2 passes (cache/validation outcome irrelevant), third is cut.
	codes := []int{}
	for i := 0; i < 3; i++ {
		code, _, _ := postSpec(t, ts, smallSecuritySpec(uint64(10+i)), hdr)
		codes = append(codes, code)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third submission = %v, want 429", codes)
	}
	// A different client has its own bucket.
	code, _, _ := postSpec(t, ts, smallSecuritySpec(99), map[string]string{"X-Pride-Client": "other"})
	if code == http.StatusTooManyRequests {
		t.Fatal("distinct client shared the bucket")
	}
}

func TestQueueFullRejects(t *testing.T) {
	// One worker, queue depth 1, jobs slow enough to pile up.
	_, ts := testServer(t, Config{QueueDepth: 1, JobWorkers: 1})
	long := func(seed int) string {
		return fmt.Sprintf(`{"kind":"security","seed":%d,"workers":1,"security":{"entries":1,"window":16,"periods":3000000}}`, seed)
	}
	sawFull := false
	for i := 0; i < 4; i++ {
		code, _, body := postSpec(t, ts, long(100+i), nil)
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "queue full") {
				t.Fatalf("503 body = %s", body)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("queue never filled")
	}
}

func TestEnqueueFaultIs503AndRetryable(t *testing.T) {
	in := faultinject.New(1)
	in.Arm(faultinject.SiteServerEnqueue, faultinject.Trigger{Nth: 1})
	_, ts := testServer(t, Config{Faults: in})
	code, _, body := postSpec(t, ts, smallSecuritySpec(7), nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("faulted submit = %d %s, want 503", code, body)
	}
	// The client's retry of the identical spec succeeds and completes.
	code, j, _ := postSpec(t, ts, smallSecuritySpec(7), nil)
	if code != http.StatusAccepted {
		t.Fatalf("retry = %d, want 202", code)
	}
	if got := waitState(t, ts, j.ID, StateDone, StateFailed); got.State != StateDone {
		t.Fatalf("retried job failed: %s", got.Error)
	}
}

func TestJobRunFaultsAreRetriedThenExhausted(t *testing.T) {
	// Job 0: one injected failure, absorbed by the retry budget.
	in := faultinject.New(1)
	in.Arm(faultinject.SiteJobRun, faultinject.Trigger{Nth: 1})
	s, ts := testServer(t, Config{Faults: in, JobRetry: trialrunner.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}})
	_, j, _ := postSpec(t, ts, smallSecuritySpec(21), nil)
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone || done.Attempts != 2 {
		t.Fatalf("job = %+v, want done after 2 attempts", done)
	}
	if got := s.Campaign().Snapshot().JobRetries; got != 1 {
		t.Fatalf("job retries = %d, want 1", got)
	}

	// Every attempt failing exhausts the budget and fails the job.
	in2 := faultinject.New(1)
	in2.Arm(faultinject.SiteJobRun, faultinject.Trigger{Nth: 1, Attempts: -1})
	_, ts2 := testServer(t, Config{Faults: in2, JobRetry: trialrunner.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}})
	_, j2, _ := postSpec(t, ts2, smallSecuritySpec(22), nil)
	failed := waitState(t, ts2, j2.ID, StateDone, StateFailed)
	if failed.State != StateFailed || !strings.Contains(failed.Error, "after 2 attempt(s)") {
		t.Fatalf("job = %+v, want failed after 2 attempts", failed)
	}
}

func TestPanicKindJobFaultIsRecovered(t *testing.T) {
	in := faultinject.New(1)
	in.Arm(faultinject.SiteJobRun, faultinject.Trigger{Nth: 1, Kind: faultinject.KindPanic})
	_, ts := testServer(t, Config{Faults: in, JobRetry: trialrunner.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}})
	_, j, _ := postSpec(t, ts, smallSecuritySpec(23), nil)
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("panic-kind fault not absorbed: %+v", done)
	}
}

func TestResultWriteFaultIsAbsorbed(t *testing.T) {
	in := faultinject.New(1)
	in.Arm(faultinject.SiteJobResultWrite, faultinject.Trigger{Nth: 1})
	_, ts := testServer(t, Config{Faults: in})
	_, j, _ := postSpec(t, ts, smallSecuritySpec(24), nil)
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("result-write fault not absorbed by the store's retry: %+v", done)
	}
}

func TestHealthReadyAndVars(t *testing.T) {
	s, ts := testServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "pride.campaigns") {
		t.Fatal("/debug/vars does not expose pride.campaigns")
	}

	// Drain flips readiness but not liveness.
	s.Drain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", resp.StatusCode)
	}
	code, _, body := postSpec(t, ts, smallSecuritySpec(31), nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("submit during drain = %d %s, want 503 draining", code, body)
	}
}

func TestLimiterRefills(t *testing.T) {
	l := newLimiter(100, 1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	if !l.Allow("c") {
		t.Fatal("first request rejected")
	}
	if l.Allow("c") {
		t.Fatal("empty bucket allowed")
	}
	now = now.Add(20 * time.Millisecond) // 2 tokens at 100/s, capped at burst 1
	if !l.Allow("c") {
		t.Fatal("refilled bucket rejected")
	}
	if l.Allow("c") {
		t.Fatal("burst cap not applied")
	}
}

func TestStoreRejectsKeyCollision(t *testing.T) {
	st, err := newResultStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("key-a", "key-a", "security", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	env, ok, err := st.Get("key-a")
	if err != nil || !ok || env.Kind != "security" {
		t.Fatalf("roundtrip: env=%+v ok=%v err=%v", env, ok, err)
	}
	if _, ok, err := st.Get("key-missing"); err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	// Forge the file a lookup of key-b would read, but with key-a's envelope
	// inside: the store must refuse, never serve a wrong result silently.
	data, err := os.ReadFile(filepath.Join(st.dir, jobID("key-a")+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.dir, jobID("key-b")+".json"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get("key-b"); err == nil || !strings.Contains(err.Error(), "holds key") {
		t.Fatalf("collision not rejected: %v", err)
	}
	// GetByID is the key-less path (cross-restart status queries).
	if env, ok, err := st.GetByID(jobID("key-a")); err != nil || !ok || env.Key != "key-a" {
		t.Fatalf("GetByID: env=%+v ok=%v err=%v", env, ok, err)
	}
}
