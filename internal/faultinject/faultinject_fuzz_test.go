package faultinject

import "testing"

// FuzzFaultSpec throws arbitrary text at the fault-spec parser behind the
// -chaos flags. Parsing must never panic, and an accepted spec's String()
// must re-parse to the same String(): a chaos log line replays the
// schedule it names.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"checkpoint.write:nth=3",
		"trial.panic:every=4,kind=panic,attempts=-1;checkpoint.write:prob=0.25,limit=2,kind=shortwrite",
		"server.enqueue:nth=1;job.run:nth=1;job.result-write:nth=1;trace.read:nth=1",
		" a : nth=1 , every=2 ;; b:",
		"x:prob=NaN",
		"x:prob=+Inf,nth=-3",
		"x:prob=1e-400",
		"x:kind=bogus",
		"x:nth",
		":nth=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(1, spec)
		if err != nil {
			return
		}
		canon := in.String()
		again, err := Parse(1, canon)
		if err != nil {
			t.Fatalf("%q parsed, but its String %q does not: %v", spec, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("%q: String %q re-parses to String %q", spec, canon, got)
		}
	})
}
