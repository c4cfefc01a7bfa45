package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pride/internal/server"
	"pride/internal/system"
)

// corrupt changes one field of a JSON object.
func corrupt(t *testing.T, raw json.RawMessage, field string, v any) json.RawMessage {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m[field] = v
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFailureCounting drives submit and the result checks against a fake
// daemon that answers one job correctly, one with a corrupted result, one
// with 503, and one cache hit whose bytes differ from the first result.
// Each bad submission counts as exactly one failed operation.
func TestFailureCounting(t *testing.T) {
	ctx := context.Background()
	q := newJobSeq(1, tinyDaemon)
	good, bad, refused := q.spec("security", 1), q.spec("security", 2), q.spec("security", 3)
	goodRes, err := directResult(ctx, good, 1)
	if err != nil {
		t.Fatal(err)
	}
	badRes, err := directResult(ctx, bad, 1)
	if err != nil {
		t.Fatal(err)
	}
	badRes = corrupt(t, badRes, "worst_loss", 0.5)
	// Same content, different bytes: a cache hit must match byte for byte.
	hitRes := json.RawMessage(strings.Replace(string(goodRes), ":", ": ", 1))

	var mu sync.Mutex
	posts := map[uint64]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			var s server.Spec
			if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
				t.Error(err)
			}
			mu.Lock()
			posts[s.Seed]++
			n := posts[s.Seed]
			mu.Unlock()
			switch {
			case s.Seed == 3:
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"job queue full"}`)
			case s.Seed == 1 && n > 1:
				// Written verbatim: encoding/json would compact the bytes.
				fmt.Fprintf(w, `{"id":"job1","state":"done","cached":true,"result":%s}`, hitRes)
			default:
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprintf(w, `{"id":"job%d","state":"queued"}`, s.Seed)
			}
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		res := map[string]json.RawMessage{"job1": goodRes, "job2": badRes}[id]
		json.NewEncoder(w).Encode(map[string]any{"id": id, "state": "done", "result": res})
	}))
	defer srv.Close()

	var subs []*submission
	for _, s := range []struct {
		spec   server.Spec
		repeat bool
	}{{good, false}, {bad, false}, {refused, false}, {good, true}} {
		sub, err := submit(ctx, srv.Client(), srv.URL, s.spec, s.repeat, tinyDaemon)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		subs = append(subs, sub)
	}
	if err := checkSubmissions(ctx, subs, 2); err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	for _, s := range subs {
		out.record(io.Discard, s.err)
	}
	if out.attempted != 4 || out.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3", out.attempted, out.failed)
	}
	if subs[0].err != nil {
		t.Errorf("correct job failed: %v", subs[0].err)
	}
	for i, want := range map[int]string{1: "differs from the in-process campaign", 2: "HTTP 503", 3: "byte for byte"} {
		if subs[i].err == nil || !strings.Contains(subs[i].err.Error(), want) {
			t.Errorf("submission %d: err = %v, want it to mention %q", i, subs[i].err, want)
		}
	}
}

func TestCheckReplayCatchesCorruption(t *testing.T) {
	ref := system.ReplayResult{
		Records: 3,
		CRC32:   0xabcd,
		Shards: []system.ShardResult{
			{Channel: 0, ACTs: 2, Flips: []system.ReplayFlip{{Row: 5, ACTIndex: 1}}},
			{Channel: 1, ACTs: 1},
		},
	}
	exp := traceExpect{records: 3, crc: 0xabcd, perChannel: []uint64{2, 1}}
	if err := checkReplay(ref, exp, &ref); err != nil {
		t.Fatalf("identical replay rejected: %v", err)
	}
	flipped := ref
	flipped.Shards = append([]system.ShardResult(nil), ref.Shards...)
	flipped.Shards[0].Flips = []system.ReplayFlip{{Row: 6, ACTIndex: 1}}
	if err := checkReplay(flipped, exp, &ref); err == nil {
		t.Error("a changed flip passed")
	}
	exp.perChannel = []uint64{1, 2}
	if err := checkReplay(ref, exp, nil); err == nil {
		t.Error("wrong per-channel ACTs passed")
	}
	exp = traceExpect{records: 3, crc: 0xabce, perChannel: []uint64{2, 1}}
	if err := checkReplay(ref, exp, nil); err == nil {
		t.Error("a wrong CRC passed")
	}
}

func TestDigestErrorsCountEachCampaignOnce(t *testing.T) {
	want := roundDigest{Security: "a", Attack: "b", TTF: "c"}
	got := want
	got.Attack = "x"
	out := newOutcome()
	for _, e := range digestErrors(got, want) {
		out.record(io.Discard, e)
	}
	if out.attempted != 3 || out.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 1", out.attempted, out.failed)
	}
}
