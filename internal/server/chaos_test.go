package server

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"pride/internal/faultinject"
	"pride/internal/trialrunner"
)

// TestChaosRunBitIdenticalToDirectCampaign is the acceptance gate for the
// daemon's robustness contract: a replay submission that survives an injected
// admission failure, a failed first attempt (job.run), a mid-stream trace
// read error, a drain mid-campaign, a daemon restart, and an injected result
// write failure must produce a byte-for-byte identical result to the same
// campaign run directly through system.ReplayCampaign — the CLI path, no
// server, no faults.
func TestChaosRunBitIdenticalToDirectCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second replay campaign; run without -short (the chaos CI job does)")
	}
	dataDir := t.TempDir()

	// Daemon life 1: chaos at admission, job execution and trace decode.
	in1, err := faultinject.Parse(99, "server.enqueue:nth=1;job.run:nth=1;trace.read:nth=1")
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := testServer(t, Config{
		DataDir:  dataDir,
		Faults:   in1,
		JobRetry: trialrunner.RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
	})

	// The armed enqueue fault rejects the first submission retryably.
	code, _, _ := postSpec(t, ts1, replaySpec, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("faulted submit = %d, want 503", code)
	}
	code, j, _ := postSpec(t, ts1, replaySpec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("retried submit = %d, want 202", code)
	}

	// Attempt 1 dies at job.run, attempt 2 dies on the first trace read;
	// wait for the clean attempt 3 to be underway, then drain mid-campaign.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, got := getJob(t, ts1, j.ID)
		if got.Attempts >= 3 && got.State == StateRunning {
			break
		}
		if got.State == StateDone || got.State == StateFailed {
			t.Fatalf("job finished before the drain could land: %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached attempt 3: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if drained := s1.Drain(); drained != 1 {
		t.Fatalf("Drain() = %d, want 1 interrupted job", drained)
	}
	ts1.Close()
	for site, want := range map[string]int{
		faultinject.SiteServerEnqueue: 1,
		faultinject.SiteJobRun:        1,
		faultinject.SiteTraceRead:     1,
	} {
		if got := in1.Fired(site); got != want {
			t.Errorf("site %s fired %d times, want %d", site, got, want)
		}
	}

	// Daemon life 2: restart on the same data directory with a result-write
	// fault armed; the resumed job completes and the store's retry absorbs
	// the failed first write.
	in2, err := faultinject.Parse(99, "job.result-write:nth=1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServer(t, Config{DataDir: dataDir, Faults: in2})
	code, j2, _ := postSpec(t, ts2, replaySpec, nil)
	if code != http.StatusAccepted || j2.ID != j.ID {
		t.Fatalf("resubmit = %d id=%s, want 202 id=%s", code, j2.ID, j.ID)
	}
	done := waitState(t, ts2, j2.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("chaos job failed: %s", done.Error)
	}
	if got := in2.Fired(faultinject.SiteJobResultWrite); got != 1 {
		t.Errorf("result-write site fired %d times, want 1", got)
	}

	// A third submission is a pure cache hit.
	code, j3, _ := postSpec(t, ts2, replaySpec, nil)
	if code != http.StatusOK || !j3.Cached || !bytes.Equal(j3.Result, done.Result) {
		t.Fatalf("cache hit after chaos: code=%d cached=%v", code, j3.Cached)
	}

	// The CLI path: the identical campaign straight through the system
	// layer, mirroring how prepareReplay builds it from replaySpec's fields.
	_, want := directReplay(t, generatedSource(t, "lbm", "col=6 bank=2 row=10 rank=0 chan=1 xor=0", 8000000, 7), 7)
	// The HTTP layer re-indents responses; compare the compact forms.
	if served := compactJSON(t, done.Result); !bytes.Equal(served, want) {
		t.Fatalf("chaos-run result differs from the direct campaign:\n  server: %s\n  direct: %s", served, want)
	}
}
