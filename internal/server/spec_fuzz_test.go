package server

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// FuzzSpecPrepare feeds arbitrary request bodies through the submit path's
// decode and prepare. Neither may panic; a spec prepare accepts must
// prepare to the same key again, and its execution hints (workers,
// trial_retries) must never change that key. A trace_path is pointed at a
// small trace file the target writes itself, so the fuzzer never reads an
// arbitrary host path.
func FuzzSpecPrepare(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"security","seed":1,"security":{"periods":100}}`,
		`{"kind":"security","seed":42,"engine":"exact","workers":3,"trial_retries":2,"selfcheck":true,"security":{"entries":2,"window":16,"insertion_prob":0.5,"periods":1000}}`,
		`{"kind":"attack","seed":6,"attack":{"scheme":"PrIDE","acts":20000,"patterns":3,"seeds":2}}`,
		`{"kind":"ttfsim","seed":151,"ttfsim":{"scheme":"PrIDE","banks":2,"trh":300,"max_trefi":30000,"trials":3}}`,
		`{"kind":"replay","seed":9,"replay":{"workload":"lbm","mapping":"col=6 bank=2 row=10 rank=0 chan=1 xor=0","acts":5000,"scheme":"PrIDE","trh":500}}`,
		`{"kind":"replay","seed":5,"replay":{"trace_path":"x","scheme":"PrIDE","trh":500}}`,
		`{"kind":"replay","engine":"event","replay":{"workload":"lbm","acts":1,"scheme":"PrIDE","trh":500}}`,
		`{"kind":"attack","security":{"periods":1}}`,
		`{"kind":"bogus"}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	tracePath := filepath.Join(f.TempDir(), "fuzz.trace")
	writeTraceFile(f, tracePath, "lbm", "col=6 bank=2 row=10 rank=0 chan=1 xor=0", 64, 1)

	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.Replay != nil && spec.Replay.TracePath != "" {
			sub := *spec.Replay
			sub.TracePath = tracePath
			spec.Replay = &sub
		}
		p1, err := spec.prepare()
		if err != nil {
			return
		}
		p2, err := spec.prepare()
		if err != nil || p2.key != p1.key {
			t.Fatalf("second prepare of an accepted spec: key %q, err %v; first key %q", p2.key, err, p1.key)
		}
		hinted := spec
		hinted.Workers = spec.Workers + 3
		hinted.TrialRetries = spec.TrialRetries + 1
		p3, err := hinted.prepare()
		if err != nil || p3.key != p1.key {
			t.Fatalf("execution hints changed the spec's fate: key %q, err %v; want key %q", p3.key, err, p1.key)
		}
	})
}
